open Rgs_core

type t = {
  capacity : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  queues : (int, Job.t Queue.t) Hashtbl.t;  (* client id -> pending FIFO *)
  ring : int Queue.t;  (* clients with pending jobs, round-robin order *)
  mutable pending_count : int;
  running_jobs : (string, Job.t) Hashtbl.t;  (* job id -> running *)
  live_ids : (string, unit) Hashtbl.t;  (* queued + running *)
  mutable draining_flag : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Scheduler.create: capacity must be >= 1";
  {
    capacity;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    queues = Hashtbl.create 8;
    ring = Queue.create ();
    pending_count = 0;
    running_jobs = Hashtbl.create 8;
    live_ids = Hashtbl.create 8;
    draining_flag = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* level gauges, not peaks: store the current reading directly (a
   Metrics.counter is an [int Atomic.t]) *)
let set_gauges t =
  Metrics.set Server_metrics.jobs_pending t.pending_count;
  Metrics.set Server_metrics.jobs_running (Hashtbl.length t.running_jobs)

type admit =
  | Admitted of int
  | Overloaded of { pending : int; capacity : int }
  | Duplicate
  | Draining

let submit t (job : Job.t) =
  locked t (fun () ->
      if t.draining_flag then Draining
      else if Hashtbl.mem t.live_ids job.spec.Protocol.job_id then Duplicate
      else if t.pending_count >= t.capacity then
        Overloaded { pending = t.pending_count; capacity = t.capacity }
      else begin
        let q =
          match Hashtbl.find_opt t.queues job.client with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace t.queues job.client q;
            q
        in
        if Queue.is_empty q then Queue.push job.client t.ring;
        Queue.push job q;
        t.pending_count <- t.pending_count + 1;
        Hashtbl.replace t.live_ids job.spec.Protocol.job_id ();
        set_gauges t;
        Condition.signal t.nonempty;
        Admitted t.pending_count
      end)

(* Pop the next job round-robin: rotate the ring until a client with a
   non-empty queue surfaces (cancel_client may have emptied a queue whose
   client is still in the ring — such entries are dropped here). *)
let rec pop_ring t =
  match Queue.take_opt t.ring with
  | None -> None
  | Some client -> (
    match Hashtbl.find_opt t.queues client with
    | None -> pop_ring t
    | Some q -> (
      match Queue.take_opt q with
      | None -> pop_ring t
      | Some job ->
        if not (Queue.is_empty q) then Queue.push client t.ring;
        Some job))

let next_job t =
  locked t (fun () ->
      let rec wait () =
        match pop_ring t with
        | Some job ->
          t.pending_count <- t.pending_count - 1;
          Hashtbl.replace t.running_jobs job.Job.spec.Protocol.job_id job;
          job.Job.last_progress_at <- Unix.gettimeofday ();
          set_gauges t;
          `Job job
        | None ->
          if t.draining_flag then `Drain
          else begin
            Condition.wait t.nonempty t.lock;
            wait ()
          end
      in
      wait ())

let start_budget t (job : Job.t) budget =
  locked t (fun () ->
      job.Job.budget <- Some budget;
      job.Job.last_progress_at <- Unix.gettimeofday ();
      if job.Job.cancel_reason <> None then Budget.cancel budget)

let finish t (job : Job.t) =
  locked t (fun () ->
      Hashtbl.remove t.running_jobs job.Job.spec.Protocol.job_id;
      Hashtbl.remove t.live_ids job.Job.spec.Protocol.job_id;
      set_gauges t)

let cancel_job (job : Job.t) reason =
  if job.Job.cancel_reason = None then begin
    job.Job.cancel_reason <- Some reason;
    Option.iter Budget.cancel job.Job.budget;
    true
  end
  else false

let cancel_client t ~client =
  locked t (fun () ->
      let dropped = ref [] in
      (match Hashtbl.find_opt t.queues client with
      | None -> ()
      | Some q ->
        Queue.iter
          (fun (job : Job.t) ->
            ignore (cancel_job job Job.Disconnect);
            Hashtbl.remove t.live_ids job.Job.spec.Protocol.job_id;
            t.pending_count <- t.pending_count - 1;
            dropped := job :: !dropped)
          q;
        Queue.clear q;
        Hashtbl.remove t.queues client);
      Hashtbl.iter
        (fun _ (job : Job.t) ->
          if job.Job.client = client then ignore (cancel_job job Job.Disconnect))
        t.running_jobs;
      set_gauges t;
      List.rev !dropped)

let scan_watchdog t ~now ~idle_timeout_s =
  locked t (fun () ->
      let stalled = ref [] in
      Hashtbl.iter
        (fun _ (job : Job.t) ->
          match job.Job.budget with
          | None -> ()
          | Some b ->
            let nodes = Budget.nodes b in
            if nodes <> job.Job.last_nodes then begin
              job.Job.last_nodes <- nodes;
              job.Job.last_progress_at <- now
            end
            else if
              now -. job.Job.last_progress_at > idle_timeout_s
              && cancel_job job Job.Stalled
            then stalled := job :: !stalled)
        t.running_jobs;
      List.rev !stalled)

let drain t =
  locked t (fun () ->
      t.draining_flag <- true;
      let dropped = ref [] in
      Hashtbl.iter
        (fun _ q ->
          Queue.iter
            (fun (job : Job.t) ->
              ignore (cancel_job job Job.Drain);
              Hashtbl.remove t.live_ids job.Job.spec.Protocol.job_id;
              dropped := job :: !dropped)
            q;
          Queue.clear q)
        t.queues;
      Hashtbl.reset t.queues;
      Queue.clear t.ring;
      t.pending_count <- 0;
      set_gauges t;
      Condition.broadcast t.nonempty;
      List.rev !dropped)

let cancel_running_for_drain t =
  locked t (fun () ->
      let cancelled = ref [] in
      Hashtbl.iter
        (fun _ (job : Job.t) ->
          if cancel_job job Job.Drain then cancelled := job :: !cancelled)
        t.running_jobs;
      List.rev !cancelled)

let draining t = locked t (fun () -> t.draining_flag)
let pending t = locked t (fun () -> t.pending_count)
let running t = locked t (fun () -> Hashtbl.length t.running_jobs)
