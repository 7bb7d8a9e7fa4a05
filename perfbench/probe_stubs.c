/* Process probes the OCaml standard library does not expose: a monotonic
   nanosecond clock for the span timers, and wait4(2) so the CPU time and
   peak resident set of one specific child come from the kernel's own
   accounting rather than from the measured program. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

intnat perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return Val_long(perfbench_now_ns(unit));
}

/* wait4 pid -> (exit code, user s, system s, max rss KiB). A child killed
   by a signal reports 128 + the signal number, as a shell would. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal3(res, utime, stime);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid);
  pid_t r;
  int err;
  memset(&ru, 0, sizeof ru);
  for (;;) {
    caml_enter_blocking_section();
    r = wait4(pid, &status, 0, &ru);
    err = errno;
    caml_leave_blocking_section();
    if (r >= 0) break;
    if (err != EINTR) caml_failwith(strerror(err));
    /* let OCaml signal handlers (the run deadline) run, then wait on */
    caml_process_pending_actions();
  }
  utime = caml_copy_double((double)ru.ru_utime.tv_sec
                           + (double)ru.ru_utime.tv_usec / 1e6);
  stime = caml_copy_double((double)ru.ru_stime.tv_sec
                           + (double)ru.ru_stime.tv_usec / 1e6);
  res = caml_alloc_tuple(4);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, utime);
  Store_field(res, 2, stime);
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
