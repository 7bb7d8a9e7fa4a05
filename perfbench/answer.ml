(* Answer fingerprints. A CLI answer is the list of "  <pattern> (sup=N)"
   lines Miner.pp_report prints under its "N patterns in Xs" header; the
   reference renders Miner.mine's report through the same printer, so the
   two compare byte for byte without holding either answer in memory. A
   daemon answer is the job's (pattern, support) rows, compared as a
   sorted list. *)

open Rgs_core

type t = { count : int; digest : string }

let equal a b = a.count = b.count && String.equal a.digest b.digest
let pp ppf t = Format.fprintf ppf "%d pattern(s), digest %s" t.count (Digest.to_hex t.digest)

let fold_lines (lines : string Seq.t) =
  Seq.fold_left
    (fun t l -> { count = t.count + 1; digest = Digest.string (t.digest ^ l) })
    { count = 0; digest = Digest.string "" }
    lines

let header_count line =
  match String.index_opt line ' ' with
  | Some i
    when String.starts_with ~prefix:" pattern"
           (String.sub line i (String.length line - i)) ->
    int_of_string_opt (String.sub line 0 i)
  | _ -> None

(* The pattern lines of a printed report, in order; [None] when no
   report header is found or the header's count disagrees with the
   lines printed (an answer cut by [--limit]). *)
let of_printed (lines : string Seq.t) =
  let rec find_header s =
    match s () with
    | Seq.Nil -> None
    | Seq.Cons (l, rest) -> (
      match header_count l with Some n -> Some (n, rest) | None -> find_header rest)
  in
  match find_header lines with
  | None -> None
  | Some (n, rest) ->
    let body =
      Seq.take_while
        (fun l ->
          String.starts_with ~prefix:"  " l && not (String.starts_with ~prefix:"  ..." l))
        rest
    in
    let t = fold_lines body in
    if t.count = n then Some t else None

let of_file path =
  In_channel.with_open_bin path (fun ic ->
      of_printed (Seq.of_dispenser (fun () -> In_channel.input_line ic)))

let of_report ?codec report =
  let text =
    Format.asprintf "%a@." (Miner.pp_report ?codec ~limit:max_int) report
  in
  of_printed (List.to_seq (String.split_on_char '\n' text))

let row_line (events, support) =
  String.concat " " (List.map string_of_int events) ^ ":" ^ string_of_int support

let of_rows rows = fold_lines (List.to_seq (List.map row_line (List.sort compare rows)))

let rows_of_report report =
  List.map
    (fun m -> (Pattern.to_list m.Mined.pattern, m.Mined.support))
    report.Miner.results

(* A top-k answer is unique only up to ties at the k-th support, which
   the daemon's resumable path and Miner.mine may break differently. It
   is correct when it has the reference's support multiset and every row
   is a distinct pattern within [max_length] whose support, recounted on
   the database, is the one reported. *)
let topk_ok db ~max_length ~reference rows =
  let supports l = List.sort compare (List.map snd l) in
  supports rows = supports reference
  && List.length (List.sort_uniq compare (List.map fst rows)) = List.length rows
  && List.for_all
       (fun (events, support) ->
         List.length events <= max_length
         && Miner.support db (Pattern.of_list events) = support)
       rows
