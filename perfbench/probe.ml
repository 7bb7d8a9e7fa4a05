(* Measuring processes from outside: a monotonic clock, spawning a system
   binary and reaping it with its kernel rusage, /proc readings of a live
   process, and the host facts every result carries. *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

external wait4 : int -> int * float * float * int = "perfbench_wait4"

let now_s () = float_of_int (now_ns ()) /. 1e9
let seconds_since t0_ns = float_of_int (now_ns () - t0_ns) /. 1e9

(* Children still running; the run deadline kills them so a hung system
   binary turns into failed operations instead of a benchmark that never
   exits. *)
let live : int list ref = ref []

let kill_live () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live

(* At exit: kill and reap whatever is still running. *)
let reap_live () =
  kill_live ();
  List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) !live;
  live := []

let arm_deadline seconds =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> kill_live ()));
  ignore (Unix.alarm seconds)

let spawn ?(stdout = "/dev/null") exe args =
  let out =
    Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let err = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out err)
  in
  live := pid :: !live;
  pid

type usage = {
  exit_code : int;
  wall_s : float;  (** launch to exit, as the parent saw it *)
  cpu_s : float;  (** user + system time of the child *)
  peak_rss_mb : float;  (** the child's peak resident set (ru_maxrss) *)
}

let reap pid =
  let code, user, sys, maxrss_kb = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  (code, user +. sys, float_of_int maxrss_kb /. 1024.)

(* One invocation of a CLI, stdout captured to a file. ru_maxrss of a
   spawned child also covers the parent's resident set at spawn time
   (the kernel folds the pre-exec address space into the child's
   high-water mark), so callers keep the benchmark process small until
   every measured child has exited. *)
let run ~stdout exe args =
  let t0 = now_ns () in
  let pid = spawn ~stdout exe args in
  let exit_code, cpu_s, peak_rss_mb = reap pid in
  { exit_code; wall_s = seconds_since t0; cpu_s; peak_rss_mb }

(* Run [f] in a forked copy of this process and return the string it
   produces, so work that grows the heap (generating and packing a
   corpus) leaves its memory in the copy. Only call it while this
   process runs a single domain. *)
let in_child f =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      match f () with
      | s ->
        let oc = Unix.out_channel_of_descr w in
        output_string oc s;
        flush oc;
        0
      | exception e ->
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let s = In_channel.input_all ic in
    close_in ic;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> s
    | _ -> failwith "set-up in a forked child failed")

(* A forked copy of this process that runs [prepare] once and then, on
   each request, runs [f] over and over for at least the requested time
   (at least once), answering with the duration of every repetition.
   A run can so spread the repetitions of its set-up over its whole
   measuring window instead of bunching them at the start, and its
   set-up median samples the same stretch of host speed as its timed
   work. The copy keeps whatever [prepare] and [f] allocate. Same
   single-domain rule as [in_child]. *)
type repeater = { rpid : int; req : out_channel; resp : in_channel }

let repeater_failed () = failwith "set-up in a forked child failed"

let repeater ~prepare f =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
    let rec serve () =
      match In_channel.input_line ic with
      | None -> ()
      | Some line ->
        let min_s = float_of_string line in
        let t0 = now_ns () in
        let rec go () =
          let t = now_ns () in
          f ();
          Printf.fprintf oc "%.17g\n" (seconds_since t);
          if seconds_since t0 < min_s then go ()
        in
        go ();
        output_string oc "end\n";
        flush oc;
        serve ()
    in
    let code =
      match
        prepare ();
        output_string oc "ready\n";
        flush oc;
        serve ()
      with
      | () -> 0
      | exception e ->
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    live := pid :: !live;
    let r =
      { rpid = pid; req = Unix.out_channel_of_descr req_w; resp = Unix.in_channel_of_descr resp_r }
    in
    if In_channel.input_line r.resp <> Some "ready" then repeater_failed ();
    r

(* The durations of [f]'s repetitions for one request of [min_s]. *)
let repeat r ~min_s =
  Printf.fprintf r.req "%.17g\n%!" min_s;
  let rec read acc =
    match In_channel.input_line r.resp with
    | Some "end" -> List.rev acc
    | Some l -> read (float_of_string l :: acc)
    | None -> repeater_failed ()
  in
  read []

(* End of input makes the copy exit; reap it. *)
let close_repeater r =
  close_out_noerr r.req;
  close_in_noerr r.resp;
  if List.mem r.rpid !live then begin
    (try ignore (Unix.waitpid [] r.rpid) with Unix.Unix_error _ -> ());
    live := List.filter (( <> ) r.rpid) !live
  end

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* "VmHWM:  123456 kB" in /proc/<pid>/status *)
let status_kb pid field =
  let prefix = field ^ ":" in
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%s/status" pid)))
  with
  | None -> 0
  | Some l ->
    let v = String.sub l (String.length prefix) (String.length l - String.length prefix) in
    Scanf.sscanf (String.trim v) "%d" Fun.id

let vm_hwm_mb pid = float_of_int (status_kb pid "VmHWM") /. 1024.

let clock_ticks_per_s = 100.

(* utime + stime of a live process, fields 14 and 15 of /proc/<pid>/stat
   (counted after the parenthesised command name, which may hold spaces). *)
let cpu_s_of_live pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3 (state) *)
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. clock_ticks_per_s

let command_output prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | ic -> (
    let out = String.trim (In_channel.input_all ic) in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when out <> "" -> Some out
    | _ -> None)
  | exception Unix.Unix_error _ -> None

let nproc () =
  match Option.bind (command_output "nproc" []) int_of_string_opt with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let commit () =
  match Sys.file_exists ".git" with
  | true -> Option.value (command_output "git" [ "rev-parse"; "HEAD" ]) ~default:"unavailable"
  | false -> "unavailable"

(* A source tree exported without its git history has no commit, so the
   program under test is also identified by a digest of its sources. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
                   || f = "dune"
           then [ p ]
           else [])
  in
  let paths = files "lib" @ files "bin" @ [ "dune-project" ] in
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun p -> p ^ "\000" ^ Digest.to_hex (Digest.file p)) paths)))
