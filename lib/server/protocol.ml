open Rgs_core

let magic = "RGSD"
let version = 2
let min_version = 1
let max_frame_bytes = 64 * 1024 * 1024

exception Protocol_error of string

type format = Tokens | Chars | Spmf

type db_source =
  | Inline of { format : format; text : string }
  | File of { format : format; path : string }

type mode = All | Closed

type query_spec = Q_all | Q_target of int list | Q_top_k of int

type job_spec = {
  job_id : string;
  db : db_source;
  min_sup : int;
  mode : mode;
  max_length : int option;
  max_gap : int option;
  deadline_s : float option;
  max_nodes : int option;
  max_words : int option;
  query : query_spec;
  compress_delta : float option;
}

type request = Submit of job_spec | Stats | Ping

(* Marshal is structural: a v1 [job_spec] payload is a 9-field block, and
   reading it through the 11-field v2 record would walk off the end. The
   v1 layouts are kept verbatim so old payloads decode through their own
   shape and are upgraded explicitly. *)
module V1 = struct
  type job_spec = {
    job_id : string;
    db : db_source;
    min_sup : int;
    mode : mode;
    max_length : int option;
    max_gap : int option;
    deadline_s : float option;
    max_nodes : int option;
    max_words : int option;
  }

  type request = Submit of job_spec | Stats | Ping
end

(* a v1 client cannot express a query: it gets the default mine-all *)
let upgrade_v1 (s : V1.job_spec) : job_spec =
  {
    job_id = s.V1.job_id;
    db = s.V1.db;
    min_sup = s.V1.min_sup;
    mode = s.V1.mode;
    max_length = s.V1.max_length;
    max_gap = s.V1.max_gap;
    deadline_s = s.V1.deadline_s;
    max_nodes = s.V1.max_nodes;
    max_words = s.V1.max_words;
    query = Q_all;
    compress_delta = None;
  }

let downgrade_v1 (s : job_spec) : V1.job_spec =
  if s.query <> Q_all || s.compress_delta <> None then
    raise (Protocol_error "query options require protocol version 2");
  {
    V1.job_id = s.job_id;
    db = s.db;
    min_sup = s.min_sup;
    mode = s.mode;
    max_length = s.max_length;
    max_gap = s.max_gap;
    deadline_s = s.deadline_s;
    max_nodes = s.max_nodes;
    max_words = s.max_words;
  }

type job_summary = {
  job_id : string;
  outcome : string;
  stopped_by : string option;
  quarantined : int;
  total : int;
  elapsed_s : float;
  seq : int;
}

type response =
  | Accepted of { job_id : string; position : int }
  | Overloaded of { job_id : string; pending : int; capacity : int }
  | Duplicate of { job_id : string }
  | Rejected of { job_id : string; reason : string }
  | Results of { job_id : string; patterns : (int list * int) list; seq : int }
  | Job_done of job_summary
  | Stats_frame of (string * int) list
  | Pong
  | Error_frame of string

let valid_job_id id =
  let n = String.length id in
  n >= 1 && n <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       id

(* --- byte-level I/O, EINTR-safe --- *)

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

(* [None] only on EOF before the first byte; a read timeout (SO_RCVTIMEO
   makes the read fail with EAGAIN) becomes Protocol_error so callers
   under timeout discipline cannot hang. *)
let read_exact fd len =
  let b = Bytes.create len in
  let rec go off =
    if off >= len then Some b
    else
      match Unix.read fd b off (len - off) with
      | 0 ->
        if off = 0 then None
        else raise (Protocol_error "connection closed mid-frame")
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise (Protocol_error "read timeout")
  in
  go 0

let put_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_u32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let write_frame ?(fire_fault = false) fd payload =
  if fire_fault then Budget.Fault.fire Budget.Fault.Socket_write;
  let len = String.length payload in
  if len > max_frame_bytes then
    raise (Protocol_error (Printf.sprintf "frame too large (%d bytes)" len));
  let buf = Bytes.create (8 + len) in
  put_u32 buf 0 len;
  put_u32 buf 4 (Rgs_sequence.Crc32.string payload);
  Bytes.blit_string payload 0 buf 8 len;
  write_all fd buf 0 (8 + len)

let read_frame fd =
  match read_exact fd 8 with
  | None -> None
  | Some hdr ->
    let len = get_u32 hdr 0 in
    let crc = get_u32 hdr 4 in
    if len > max_frame_bytes then
      raise (Protocol_error (Printf.sprintf "frame too large (%d bytes)" len));
    let payload =
      match read_exact fd len with
      | Some b -> Bytes.unsafe_to_string b
      | None -> raise (Protocol_error "connection closed mid-frame")
    in
    if Rgs_sequence.Crc32.string payload <> crc then
      raise (Protocol_error "frame CRC mismatch");
    Some payload

let hello_of_version v = magic ^ String.make 1 (Char.chr v)
let hello = hello_of_version version
let version_supported v = v >= min_version && v <= version

let send_hello ?(version = version) fd =
  let h = hello_of_version version in
  write_all fd (Bytes.of_string h) 0 (String.length h)

let read_hello ?(version = version) fd =
  let h = hello_of_version version in
  match read_exact fd (String.length h) with
  | Some b -> Bytes.to_string b = h
  | None -> false
  | exception Protocol_error _ -> false

(* --- payload codecs --- *)

let request_to_string ?(version = version) (r : request) =
  if version = 1 then
    let r1 : V1.request =
      match r with
      | Submit spec -> V1.Submit (downgrade_v1 spec)
      | Stats -> V1.Stats
      | Ping -> V1.Ping
    in
    Marshal.to_string r1 []
  else Marshal.to_string r []

let response_to_string (r : response) = Marshal.to_string r []

let request_of_string ?(version = version) s : request =
  if version = 1 then
    match (Marshal.from_string s 0 : V1.request) with
    | V1.Submit spec -> Submit (upgrade_v1 spec)
    | V1.Stats -> Stats
    | V1.Ping -> Ping
    | exception _ -> raise (Protocol_error "undecodable request payload")
  else
    try Marshal.from_string s 0
    with _ -> raise (Protocol_error "undecodable request payload")

let response_of_string s : response =
  try Marshal.from_string s 0
  with _ -> raise (Protocol_error "undecodable response payload")
