open Rgs_sequence

type verdict = {
  closed : bool;
  prunable : bool;
}

exception Prunable

(* Greedy leftmost landmark of [p] in [s]; [None] when [p] does not occur. *)
let leftmost_landmark s p =
  let n = Sequence.length s and m = Pattern.length p in
  let landmark = Array.make m 0 in
  let rec walk j pos =
    if j > m then Some landmark
    else if pos > n then None
    else if Event.equal (Sequence.unsafe_get s pos) (Pattern.get p j) then begin
      landmark.(j - 1) <- pos;
      walk (j + 1) (pos + 1)
    end
    else walk j (pos + 1)
  in
  if m = 0 then Some [||] else walk 1 1

(* Greedy rightmost landmark. *)
let rightmost_landmark s p =
  let n = Sequence.length s and m = Pattern.length p in
  let landmark = Array.make m 0 in
  let rec walk j pos =
    if j < 1 then Some landmark
    else if pos < 1 then None
    else if Event.equal (Sequence.unsafe_get s pos) (Pattern.get p j) then begin
      landmark.(j - 1) <- pos;
      walk (j - 1) (pos - 1)
    end
    else walk j (pos - 1)
  in
  if m = 0 then Some [||] else walk m n

(* Per-domain scratch for the gap bounds, indexed by dense event id (see
   [Alphabet.dense]): [local] counts one sequence's gap, [totals] sums the
   per-sequence bounds, and [seq_ids] / [ids] list the ids with a nonzero
   [local] / [totals] entry so a reset touches only those, O(gap length)
   rather than O(alphabet). [local] and [totals] are all-zero between
   calls; all four are regrown when a larger alphabet comes along. *)
type scratch = {
  mutable local : int array;
  mutable totals : int array;
  mutable seq_ids : int array;
  mutable ids : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { local = [||]; totals = [||]; seq_ids = [||]; ids = [||] })

let scratch_for size =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.local < size then begin
    sc.local <- Array.make size 0;
    sc.totals <- Array.make size 0;
    sc.seq_ids <- Array.make size 0;
    sc.ids <- Array.make size 0
  end;
  sc

let check ?event_sets ?(trace = Trace.null) idx ~candidate_events ~prefix_sets
    ~pattern ~support_set ~has_equal_append =
  let event_sets =
    match event_sets with Some f -> f | None -> Support_set.of_event idx
  in
  let m = Pattern.length pattern in
  let sup_p = Support_set.size support_set in
  let arr = Pattern.to_array pattern in
  let db = Inverted_index.db idx in
  let alpha = Seqdb.dense_alphabet db in
  let events =
    List.filter (fun e -> Inverted_index.occurrence_count idx e >= sup_p) candidate_events
  in
  (* Landmark envelopes of the sequences holding instances: any landmark of
     P in S_i lies position-wise between the leftmost landmark [fl] and the
     rightmost landmark [rl]. [sup_i] is S_i's contribution to sup(P). *)
  let contributing =
    List.filter_map
      (fun (i, count) ->
        let s = Seqdb.seq db i in
        match (leftmost_landmark s pattern, rightmost_landmark s pattern) with
        | Some fl, Some rl -> Some (s, fl, rl, count)
        | _ -> None)
      (Support_set.per_sequence_counts support_set)
  in
  let sc = scratch_for (Alphabet.size alpha) in
  let n_ids = ref 0 in
  (* Sound pre-filter for inserting e' at gap j (one pass per gap, all
     events at once): instances of the extension P' in S_i project to
     non-overlapping instances of P (Lemma 1), so S_i holds at most
     min(sup_i, occurrences of e' between fl_j and rl_{j+1}) of them — two
     non-overlapping P'-instances need distinct e' positions, and every
     such position lies inside the envelope gap. If the sum over sequences
     is below sup(P), growing the extension cannot reach equal support.
     Fills [sc.totals] for the ids listed in [sc.ids.(0 .. !n_ids - 1)]. *)
  let gap_bounds j =
    List.iter
      (fun (s, fl, rl, sup_i) ->
        let lo = if j = 0 then 0 else fl.(j - 1) in
        let hi = rl.(j) in
        let n_seq = ref 0 in
        for pos = lo + 1 to hi - 1 do
          let d = Alphabet.dense alpha (Sequence.unsafe_get s pos) in
          let c = sc.local.(d) in
          if c = 0 then begin
            sc.seq_ids.(!n_seq) <- d;
            incr n_seq
          end;
          sc.local.(d) <- c + 1
        done;
        for k = 0 to !n_seq - 1 do
          let d = sc.seq_ids.(k) in
          if sc.totals.(d) = 0 then begin
            sc.ids.(!n_ids) <- d;
            incr n_ids
          end;
          sc.totals.(d) <- sc.totals.(d) + min sup_i sc.local.(d);
          sc.local.(d) <- 0
        done)
      contributing
  in
  let clear_totals () =
    for k = 0 to !n_ids - 1 do
      sc.totals.(sc.ids.(k)) <- 0
    done;
    n_ids := 0
  in
  let bound e' =
    let d = Alphabet.dense alpha e' in
    if d < 0 then 0 else sc.totals.(d)
  in
  (* the funnel counters, flushed once per call *)
  let checks = ref 0 and rejects = ref 0 and base_grows = ref 0 in
  let full_grows = ref 0 in
  let non_closed = ref has_equal_append in
  (* Insertion position j in [0 .. m-1]: extension e1..ej e' e_{j+1}..e_m. *)
  let scan_position j =
    gap_bounds j;
    let suffix = Pattern.of_array (Array.sub arr j (m - j)) in
    let base e' =
      if j = 0 then event_sets e' else Support_set.grow idx prefix_sets.(j - 1) e'
    in
    let scan_event e' =
      incr checks;
      if bound e' < sup_p then incr rejects
      else begin
        incr base_grows;
        let i0 = base e' in
        if Support_set.size i0 >= sup_p then
          match Sup_comp.grow_from_until idx i0 suffix ~min_size:sup_p with
          | None -> ()
          | Some i' ->
            (* sup(P') <= sup(P) by Lemma 1, so reaching min_size means
               equality. *)
            incr full_grows;
            non_closed := true;
            (* Theorem 5 condition (ii), on the packed lasts arrays. *)
            if Support_set.border_dominated ~extension:i' ~pattern:support_set then
              raise Prunable
      end
    in
    List.iter scan_event events;
    clear_totals ()
  in
  let flush () =
    Metrics.add Metrics.closure_bound_checks !checks;
    Metrics.add Metrics.closure_bound_rejects !rejects;
    Metrics.add Metrics.closure_base_grows !base_grows;
    Metrics.add Metrics.closure_full_grows !full_grows
  in
  (* every exit, [Prunable] included, leaves the scratch zeroed *)
  match
    Fun.protect
      ~finally:(fun () ->
        clear_totals ();
        flush ())
      (fun () ->
        for j = 0 to m - 1 do
          scan_position j
        done)
  with
  | () ->
    Trace.instant trace Trace.Closure_check
      ~a0:(if !non_closed then 1 else 0)
      ~a1:m;
    { closed = not !non_closed; prunable = false }
  | exception Prunable ->
    Trace.instant trace Trace.Closure_check ~a0:2 ~a1:m;
    { closed = false; prunable = true }

let prefix_sets_of idx pattern =
  let m = Pattern.length pattern in
  let sets = Array.make m Support_set.empty in
  for j = 1 to m do
    sets.(j - 1) <-
      (if j = 1 then Support_set.of_event idx (Pattern.get pattern 1)
       else Support_set.grow idx sets.(j - 2) (Pattern.get pattern j))
  done;
  sets

let standalone ?events idx pattern =
  if Pattern.is_empty pattern then { closed = false; prunable = false }
  else begin
    let events = match events with Some es -> es | None -> Inverted_index.events idx in
    let prefix_sets = prefix_sets_of idx pattern in
    let support_set = prefix_sets.(Pattern.length pattern - 1) in
    let sup_p = Support_set.size support_set in
    let has_equal_append =
      List.exists
        (fun e -> Support_set.size (Support_set.grow idx support_set e) = sup_p)
        events
    in
    check idx ~candidate_events:events ~prefix_sets ~pattern ~support_set ~has_equal_append
  end

let is_closed ?events idx pattern = (standalone ?events idx pattern).closed
let lb_prunable ?events idx pattern = (standalone ?events idx pattern).prunable
