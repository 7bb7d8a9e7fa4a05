(* The daemon workload: a real rgsminerd serving a fixed mix of jobs to two
   closed-loop client connections of this process (Rgs_server.Client),
   from the first submit to the last Job_done.

   The mix holds the same number of jobs of each kind on every seed; the
   seed only orders them. Each run uses a fresh state directory and
   seed-unique job ids: resubmitting a known id would resume its
   checkpoint and time a near-instant resume instead of a job. *)

open Rgs_server

type kind = { label : string; job : Replay.job }

let kinds ~seed =
  let jboss = Corpus.jboss ~seed and quest_small = Corpus.quest_small ~seed in
  let job corpus ~min_sup ?max_length ?top_k mode =
    { Replay.corpus; min_sup; max_length; mode; top_k; steal_domains = None; print = false }
  in
  [| { label = "closed-jboss"; job = job jboss ~min_sup:18 ~max_length:4 Replay.Closed };
     { label = "closed-quest_small"; job = job quest_small ~min_sup:3 Replay.Closed };
     { label = "topk100-jboss"; job = job jboss ~min_sup:18 ~max_length:4 ~top_k:100 Replay.All } |]

let corpora kinds =
  List.sort_uniq
    (fun a b -> compare a.Corpus.name b.Corpus.name)
    (Array.to_list (Array.map (fun k -> k.job.Replay.corpus) kinds))

(* 40 jobs of each kind: 120 jobs leave 12 beyond the p90 latency *)
let jobs_per_kind = 40

let schedule ~seed kinds =
  let order =
    Array.init (jobs_per_kind * Array.length kinds) (fun i -> i mod Array.length kinds)
  in
  Rgs_datagen.Splitmix.shuffle (Rgs_datagen.Splitmix.create ~seed) order;
  order

let spec ~dir ~job_id (job : Replay.job) =
  {
    Protocol.job_id;
    db = Protocol.File { format = Protocol.Tokens; path = Corpus.store_path ~dir job.corpus };
    min_sup = job.min_sup;
    mode = (match job.mode with Replay.All -> Protocol.All | Replay.Closed -> Protocol.Closed);
    max_length = job.max_length;
    max_gap = None;
    deadline_s = None;
    max_nodes = None;
    max_words = None;
    query = (match job.top_k with Some k -> Protocol.Q_top_k k | None -> Protocol.Q_all);
    compress_delta = None;
  }

(* --- the daemon process --- *)

type daemon = { pid : int; socket : string }

let workers = 2

let ping socket =
  match Client.connect ~timeout_s:5. socket with
  | c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.ping c)
  | exception (Unix.Unix_error _ | Protocol.Protocol_error _) -> false

(* Spawn until the first Pong. Paths are relative to the working
   directory the daemon inherits, which keeps the socket path short. *)
let start ~exe ~dir ~tag stores =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let state = Filename.concat dir (tag ^ "-state") in
  let pid =
    Probe.spawn exe
      ([ "--socket"; socket; "--state-dir"; state; "--workers"; string_of_int workers ]
      @ List.concat_map (fun s -> [ "--store"; s ]) stores)
  in
  let d = { pid; socket } in
  let t0 = Probe.now_s () in
  let rec wait () =
    if Sys.file_exists socket && ping socket then d
    else if Probe.now_s () -. t0 > 30. then failwith "rgsminerd did not answer a ping within 30 s"
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()

(* SIGTERM (a drain), then SIGKILL if it has not exited after 10 s. *)
let stop d =
  if List.mem d.pid !Probe.live then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let t0 = Probe.now_s () in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Probe.now_s () -. t0 < 10. ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    Probe.live := List.filter (( <> ) d.pid) !Probe.live
  end

(* --- the load generator --- *)

type job_result = {
  job_id : string;
  kind : int;
  latency_s : float;  (** submit to Job_done *)
  admit_s : float;  (** submit to Accepted *)
  run_s : float;  (** the daemon's own elapsed_s for the job *)
  failure : string option;  (** refused, not completed, or broken *)
  answer : Answer.t;
  rows : (int list * int) list;  (** kept for top-k answers only *)
  frames : int;
  frame_bytes : int;
  patterns : int;
  decode_s : float;
  submitted_ns : int;
  done_ns : int;
}

(* Client.collect_job with the frames counted: each frame is re-encoded
   and decoded again with Protocol.response_of_string to price decoding. *)
let collect_counted c ~job_id =
  let frames = ref 0 and bytes = ref 0 and decode_ns = ref 0 in
  let note r =
    let s = Protocol.response_to_string r in
    let t0 = Probe.now_ns () in
    ignore (Protocol.response_of_string s);
    decode_ns := !decode_ns + (Probe.now_ns () - t0);
    incr frames;
    bytes := !bytes + String.length s
  in
  let rec loop acc =
    match Client.next_response c with
    | None -> raise (Protocol.Protocol_error "EOF before Job_done")
    | Some (Protocol.Results { job_id = j; patterns; _ } as r) when j = job_id ->
      note r;
      loop (List.rev_append patterns acc)
    | Some (Protocol.Job_done s as r) when s.Protocol.job_id = job_id ->
      note r;
      (List.rev acc, s)
    | Some r ->
      note r;
      loop acc
  in
  let rows, summary = loop [] in
  (rows, summary, (!frames, !bytes, float_of_int !decode_ns /. 1e9))

let run_job ~counted ~dir ~seed kinds c i kind =
  let job = kinds.(kind).job in
  let job_id = Printf.sprintf "s%d-j%03d-%s" seed i kinds.(kind).label in
  let t0 = Probe.now_ns () in
  let fail ?(admit_s = 0.) ~broken msg =
    ( { job_id; kind; latency_s = Probe.seconds_since t0; admit_s; run_s = 0.; failure = Some msg;
      answer = Answer.of_rows []; rows = []; frames = 0; frame_bytes = 0; patterns = 0;
      decode_s = 0.; submitted_ns = t0; done_ns = Probe.now_ns () },
      broken )
  in
  match Client.submit c (spec ~dir ~job_id job) with
  | Protocol.Accepted _ as accepted -> (
    let admit_s = Probe.seconds_since t0 in
    match
      if counted then begin
        let rows, summary, (frames, bytes, decode_s) = collect_counted c ~job_id in
        let s = Protocol.response_to_string accepted in
        (rows, summary, (frames + 1, bytes + String.length s, decode_s))
      end
      else
        let rows, summary = Client.collect_job c ~job_id in
        (rows, summary, (0, 0, 0.))
    with
    | rows, summary, (frames, frame_bytes, decode_s) ->
      let done_ns = Probe.now_ns () in
      ( {
        job_id;
        kind;
        latency_s = float_of_int (done_ns - t0) /. 1e9;
        admit_s;
        run_s = summary.Protocol.elapsed_s;
        failure =
          (if summary.Protocol.outcome = "completed" then None
           else Some ("outcome " ^ summary.Protocol.outcome));
        answer = Answer.of_rows rows;
        rows = (if job.Replay.top_k <> None then rows else []);
        frames;
        frame_bytes;
        patterns = List.length rows;
        decode_s;
        submitted_ns = t0;
        done_ns;
      },
      false )
    | exception (Protocol.Protocol_error msg | Failure msg) -> fail ~admit_s ~broken:true msg
    | exception Unix.Unix_error (e, _, _) -> fail ~admit_s ~broken:true (Unix.error_message e))
  | Protocol.Overloaded _ -> fail ~broken:false "Overloaded"
  | Protocol.Duplicate _ -> fail ~broken:false "Duplicate"
  | Protocol.Rejected { reason; _ } -> fail ~broken:false ("Rejected: " ^ reason)
  | _ -> fail ~broken:true "unexpected admission response"
  | exception (Protocol.Protocol_error msg | Failure msg) -> fail ~broken:true msg
  | exception Unix.Unix_error (e, _, _) -> fail ~broken:true (Unix.error_message e)

let connections = 2

(* Two closed-loop connections pull the next job of [order] from a shared
   counter; a connection that breaks stops, the other finishes the mix. *)
let drive ~counted ~dir ~seed kinds order d =
  let clients = List.init connections (fun _ -> Client.connect ~timeout_s:30. d.socket) in
  Fun.protect
    ~finally:(fun () -> List.iter Client.close clients)
    (fun () ->
      (* Ping every connection from this domain before fanning out: two
         domains framing their first request at once can race on the lazily
         built CRC table (Checkpoint.crc32) and die with
         CamlinternalLazy.Undefined. *)
      List.iter (fun c -> if not (Client.ping c) then failwith "no Pong before the mix") clients;
      let next = Atomic.make 0 in
      let results = Array.make (Array.length order) None in
      let loop c =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length order then begin
            let r, broken = run_job ~counted ~dir ~seed kinds c i order.(i) in
            results.(i) <- Some r;
            if not broken then go ()
          end
        in
        go ()
      in
      let others =
        List.map (fun c -> Domain.spawn (fun () -> loop c)) (List.tl clients)
      in
      loop (List.hd clients);
      List.iter Domain.join others;
      results)
