(* The traced run's spans and layer timers, kept in memory and written as
   a Chrome trace_event file when the run ends (it opens in Perfetto).

   A span has a name, a start, an end, a parent and a run id; spans of one
   replay or one daemon job share the run id. Instance growths and closure
   checks are far too many to record one by one, so the wrapped strategy
   adds their time to per-domain accumulators, and each domain's totals
   become two child spans of the mining span, laid end to end on that
   domain's track. *)

open Rgs_core

type span = {
  id : int;
  name : string;
  run_id : string;
  parent : int option;
  tid : int;
  width : int;  (** domains the span's children ran on *)
  start_ns : int;
  mutable end_ns : int;
  mutable args : (string * float) list;
}

type t = { mutable spans : span list; mutable next_id : int; lock : Mutex.t }

let create () = { spans = []; next_id = 0; lock = Mutex.create () }

let alloc t ?parent ?(tid = 0) ?(width = 1) ~run_id ~start_ns name =
  Mutex.protect t.lock (fun () ->
      let s =
        { id = t.next_id; name; run_id; parent = Option.map (fun p -> p.id) parent; tid;
          width; start_ns; end_ns = start_ns; args = [] }
      in
      t.next_id <- t.next_id + 1;
      t.spans <- s :: t.spans;
      s)

let start t ?parent ?tid ?width ~run_id name =
  alloc t ?parent ?tid ?width ~run_id ~start_ns:(Probe.now_ns ()) name

let finish s = s.end_ns <- Probe.now_ns ()

let record t ?parent ?tid ~run_id name ~start_ns ~end_ns =
  let s = alloc t ?parent ?tid ~run_id ~start_ns name in
  s.end_ns <- end_ns;
  s

let within t ?parent ?width ~run_id name f =
  let s = start t ?parent ?width ~run_id name in
  let x = Fun.protect ~finally:(fun () -> finish s) f in
  (x, s)

let seconds s = float_of_int (s.end_ns - s.start_ns) /. 1e9

(* --- per-domain layer timers --- *)

type cell = {
  cell_tid : int;
  mutable grow_n : int;
  mutable grow_ns : int;
  mutable check_n : int;
  mutable check_ns : int;
}

type timers = { key : cell Domain.DLS.key; cells : cell list ref }

let timers () =
  let cells = ref [] in
  let lock = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let c =
          { cell_tid = (Domain.self () :> int); grow_n = 0; grow_ns = 0; check_n = 0;
            check_ns = 0 }
        in
        Mutex.protect lock (fun () -> cells := c :: !cells);
        c)
  in
  { key; cells }

let cells t = List.sort (fun a b -> compare a.cell_tid b.cell_tid) !(t.cells)
let sum f t = List.fold_left (fun acc c -> acc + f c) 0 !(t.cells)

(* The strategy with its instance growth and its closure check timed.
   The closure spec is built by the engine once per run (per worker
   under work stealing), so wrapping its constructor wraps every check. *)
let wrap t (s : Engine.strategy) =
  let grow idx set e =
    let c = Domain.DLS.get t.key in
    let t0 = Probe.now_ns () in
    let r = s.grow idx set e in
    c.grow_ns <- c.grow_ns + (Probe.now_ns () - t0);
    c.grow_n <- c.grow_n + 1;
    r
  in
  let closure =
    Option.map
      (fun make idx ~events ~trace ->
        let spec = make idx ~events ~trace in
        let check ~pattern ~support_set ~prefix_rev_chain =
          let c = Domain.DLS.get t.key in
          let t0 = Probe.now_ns () in
          let v = spec.Engine.check ~pattern ~support_set ~prefix_rev_chain in
          c.check_ns <- c.check_ns + (Probe.now_ns () - t0);
          c.check_n <- c.check_n + 1;
          v
        in
        { spec with Engine.check })
      s.closure
  in
  { s with grow; closure }

(* Per-domain totals as child spans of [mine], end to end on each
   domain's track. *)
let attach_cells t spans ~mine ~run_id =
  List.iter
    (fun c ->
      let g0 = mine.start_ns in
      let g1 = g0 + c.grow_ns in
      let c1 = g1 + c.check_ns in
      let child name ~start_ns ~end_ns =
        ignore (record spans ~parent:mine ~tid:c.cell_tid ~run_id name ~start_ns ~end_ns)
      in
      if c.grow_n > 0 then child "support_set.grow" ~start_ns:g0 ~end_ns:g1;
      if c.check_n > 0 then child "closure.check" ~start_ns:g1 ~end_ns:c1)
    (cells t)

(* --- self times --- *)

(* Self time of a span: its duration minus its children's, where children
   that ran on [width] domains count 1/width of their summed duration.
   Scaling each span by the widths above it turns the self times of one
   tree into wall-equivalent seconds that add up to the root's duration;
   a negative self time means children outran their parent. Returns
   (name, seconds) per span of the tree rooted at [root]. *)
let self_times t root =
  let children = Hashtbl.create 16 in
  List.iter
    (fun s -> Option.iter (fun p -> Hashtbl.add children p s) s.parent)
    t.spans;
  let rec go scale s =
    let kids = Hashtbl.find_all children s.id in
    let kids_s = List.fold_left (fun acc k -> acc +. seconds k) 0. kids in
    let own = (seconds s -. (kids_s /. float_of_int s.width)) *. scale in
    (s.name, own)
    :: List.concat_map (go (scale /. float_of_int s.width)) kids
  in
  go 1. root

(* --- Chrome trace_event export --- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome t path =
  let spans = List.rev t.spans in
  let origin = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  let us ns = float_of_int ns /. 1e3 in
  let event s =
    let args =
      [ ("run_id", json_string s.run_id); ("id", string_of_int s.id);
        ("parent", match s.parent with Some p -> string_of_int p | None -> "null") ]
      @ List.map (fun (k, v) -> (k, Printf.sprintf "%.9g" v)) s.args
    in
    Printf.sprintf
      {|{"name":%s,"cat":"perfbench","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{%s}}|}
      (json_string s.name) s.tid
      (us (s.start_ns - origin))
      (us (s.end_ns - s.start_ns))
      (String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) args))
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      output_string oc (String.concat ",\n" (List.map event spans));
      output_string oc "\n]}\n")
