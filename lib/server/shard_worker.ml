open Rgs_sequence
open Rgs_core

(* Messages between the supervisor and one shard worker process. Framing
   is [Protocol]'s length + CRC-32 header over a Marshal payload, so a
   torn or corrupted frame is detected at the CRC before Marshal ever
   sees the bytes; the worker's stdin/stdout carry nothing else. *)

type to_worker =
  | Grow of {
      req : int;
      event : Event.t;
      gap : (int * int) option;  (* (min_gap, max_gap) *)
      part : string;  (* Support_set.encode of this shard's slice *)
    }
  | Shutdown

type from_worker =
  | Ready of { lo : int; hi : int; digest : string }
  | Heartbeat
  | Grown of { req : int; part : string }
  | Failed of { req : int; reason : string }

let write_to_worker fd (m : to_worker) =
  Protocol.write_frame fd (Marshal.to_string m [])

let read_to_worker fd : to_worker option =
  Option.map (fun s -> (Marshal.from_string s 0 : to_worker)) (Protocol.read_frame fd)

let write_from_worker fd (m : from_worker) =
  Protocol.write_frame fd (Marshal.to_string m [])

let read_from_worker fd : from_worker option =
  Option.map (fun s -> (Marshal.from_string s 0 : from_worker)) (Protocol.read_frame fd)

(* --- corrupt-frame injection ([Chaos.Proc_corrupt]) --- *)

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

(* a well-formed header whose CRC is deliberately wrong — the shape of a
   torn write that flipped payload bits *)
let write_corrupt_frame fd =
  let payload = "corrupt-frame-fault" in
  let len = String.length payload in
  let buf = Bytes.create (8 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.set_int32_be buf 4
    (Int32.of_int ((Crc32.string payload lxor 0x5A5A5A5A) land 0xFFFFFFFF));
  Bytes.blit_string payload 0 buf 8 len;
  write_all fd buf 0 (8 + len)

(* --- the serve loop --- *)

let log_src = Logs.Src.create "rgs.worker" ~doc:"Shard worker process"

module Log = (val Logs.src_log log_src : Logs.LOG)

let armed_fault () =
  let restart_gen =
    match Sys.getenv_opt Chaos.worker_restart_env with
    | Some s -> ( try int_of_string s with Failure _ -> 0)
    | None -> 0
  in
  match Sys.getenv_opt Chaos.worker_fault_env with
  | None -> None
  | Some s -> (
    match Chaos.worker_fault_of_string s with
    | Some (site, after, persist) when persist || restart_gen = 0 ->
      Some (site, after, persist)
    | Some _ -> None (* transient fault already spent in a prior incarnation *)
    | None -> None (* garbage in the env var must not kill the worker *))

let serve ?(heartbeat_ms = 50) ~store ~lo ~hi () =
  let in_fd = Unix.stdin and out_fd = Unix.stdout in
  (* a dying supervisor must surface as EPIPE on our writes, not SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let db, _codec = Rgs_store.Store.open_db store in
  let wlock = Mutex.create () in
  let send m =
    Mutex.lock wlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wlock)
      (fun () -> write_from_worker out_fd m)
  in
  let fault = armed_fault () in
  (* [Ready] goes out before the index build (which can take a while on a
     paper-scale corpus) so the supervisor's handshake never races the
     build; heartbeats start immediately after for the same reason. *)
  send (Ready { lo; hi; digest = Seqdb.content_digest db });
  let alive = Atomic.make true in
  let hung = Atomic.make false in
  let heartbeat =
    Domain.spawn (fun () ->
        let period = float_of_int heartbeat_ms /. 1000.0 in
        let rec beat () =
          if Atomic.get alive && not (Atomic.get hung) then begin
            (try Unix.sleepf period
             with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            if Atomic.get alive && not (Atomic.get hung) then begin
              match send Heartbeat with
              | () -> beat ()
              | exception (Unix.Unix_error _ | Sys_error _) ->
                (* supervisor gone; the main loop will see EOF too *)
                Atomic.set alive false
            end
          end
        in
        beat ())
  in
  let finish () =
    Atomic.set alive false;
    Domain.join heartbeat
  in
  Fun.protect ~finally:finish (fun () ->
      let idx = Inverted_index.build db in
      Log.info (fun m ->
          m "serving shard [%d, %d] of %s (pid %d)" lo hi store (Unix.getpid ()));
      let grows = ref 0 in
      let slow = ref false in
      let reply req event gap part =
        if !slow then Unix.sleepf 0.05;
        let m =
          match
            let s = Support_set.decode part in
            match gap with
            | None -> Support_set.grow idx s event
            | Some (min_gap, max_gap) ->
              Gap_constrained.grow ~min_gap idx ~max_gap s event
          with
          | grown -> Grown { req; part = Support_set.encode grown }
          | exception e -> Failed { req; reason = Printexc.to_string e }
        in
        send m
      in
      let rec loop () =
        match read_to_worker in_fd with
        | None | Some Shutdown -> ()
        | Some (Grow { req; event; gap; part }) ->
          incr grows;
          let firing =
            match fault with
            | Some (site, after, persist)
              when !grows = after || (persist && !grows > after) ->
              Some site
            | _ -> None
          in
          (match firing with
          | Some Chaos.Proc_kill ->
            (* simulate a segfault-class crash: no cleanup, no reply *)
            Unix.kill (Unix.getpid ()) Sys.sigkill
          | Some Chaos.Proc_hang ->
            (* stop heartbeating and never reply: only the supervisor's
               liveness deadline can detect this state *)
            Atomic.set hung true;
            while true do
              Unix.sleep 3600
            done
          | Some Chaos.Proc_corrupt ->
            Mutex.lock wlock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock wlock)
              (fun () -> write_corrupt_frame out_fd);
            loop ()
          | Some Chaos.Proc_slow ->
            slow := true;
            reply req event gap part;
            loop ()
          | None ->
            reply req event gap part;
            loop ())
      in
      match loop () with
      | () -> ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
      | exception Protocol.Protocol_error _ ->
        (* a torn request frame means the supervisor died mid-write or
           gave up on us; either way there is nobody left to serve *)
        ())
