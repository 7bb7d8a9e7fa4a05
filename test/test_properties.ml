(* Property-based tests (qcheck): the production algorithms against the
   exponential reference oracle on small random databases.

   Properties checked:
   - supComp computes the true maximum non-overlapping instance count
     (greedy leftmost is optimal, Lemma 4 / Theorem 2);
   - the computed support set is non-redundant and leftmost;
   - Apriori monotonicity (Lemma 1): growing a pattern never increases
     support; deleting any event never decreases it;
   - GSgrow output = exhaustive frequent set with exact supports;
   - CloGSgrow output = exhaustive closed set (soundness + completeness);
   - CloGSgrow invariance: disabling LBCheck does not change the output;
   - closure checking agrees with the definition of closedness;
   - CloGSgrow stays exact on sparse event ids, and CCheck ignores
     candidate events absent from the database;
   - sequential baselines agree with definition-level counting. *)

open Rgs_sequence
open Rgs_core

(* --- generators (shared in gens.ml) --- *)

let gen_db = Gens.db
let gen_pattern = Gens.pattern
let default_db = gen_db ~num_seqs:4 ~alphabet:3 ~max_len:8
let default_pattern = gen_pattern ~alphabet:3 ~max_len:4
let print_db = Gens.print_db
let print_pair = Gens.print_db_pattern
let make = Gens.make

(* --- properties --- *)

let prop_support_matches_oracle =
  make ~name:"supComp = exact maximum (oracle)" ~count:300
    QCheck2.Gen.(pair default_db default_pattern)
    print_pair
    (fun (db, p) ->
      let idx = Inverted_index.build db in
      Sup_comp.support idx p = Brute_force.support db p)

let prop_support_set_valid =
  make ~name:"support set: valid, non-redundant, right-shift sorted" ~count:300
    QCheck2.Gen.(pair default_db default_pattern)
    print_pair
    (fun (db, p) ->
      let full = Sup_comp.landmarks (Inverted_index.build db) p in
      (* all landmarks valid *)
      List.for_all
        (fun (f : Instance.full) ->
          Instance.is_landmark_of p (Seqdb.seq db f.Instance.fseq) f.Instance.landmark)
        full
      && (* pairwise non-overlapping *)
      List.for_all
        (fun f1 ->
          List.for_all
            (fun f2 -> f1 == f2 || Instance.non_overlapping f1 f2)
            full)
        full
      && (* sorted in right-shift order *)
      (let rec sorted = function
         | a :: (b :: _ as rest) ->
           Instance.right_shift_compare_full a b <= 0 && sorted rest
         | _ -> true
       in
       sorted full))

(* Leftmostness (Definition 3.2): against every support set that a
   brute-force search can find. Checking the defining inequality for ALL
   support sets is exponential, so we check a strong consequence that is
   cheap: for each k, the k-th instance's positions are component-wise <=
   those of the k-th instance of any maximum non-redundant set found by a
   randomised greedy. We approximate with the oracle's exhaustive landmark
   set: for each prefix length j, the leftmost set's j-th positions are the
   smallest reachable. Here we only verify the first and last positions
   (which the compressed representation exposes and the algorithms rely
   on). *)
let prop_leftmost_borders =
  make ~name:"leftmost: ends are minimal among maximum sets" ~count:150
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (gen_pattern ~alphabet:3 ~max_len:3))
    print_pair
    (fun (db, p) ->
      let full = Sup_comp.landmarks (Inverted_index.build db) p in
      let sup = List.length full in
      sup = 0
      ||
      (* Build every maximum non-redundant set per sequence by exhaustive
         search and compare sorted end positions. *)
      let ok = ref true in
      Seqdb.iter
        (fun i s ->
          let ours =
            List.filter (fun (f : Instance.full) -> f.Instance.fseq = i) full
          in
          let all =
            List.map
              (fun landmark -> { Instance.fseq = i; landmark })
              (Brute_force.landmarks_in s p)
          in
          let target = List.length ours in
          if target > 0 then begin
            (* enumerate all maximum sets; compare element-wise minima of
               sorted end positions *)
            let best_ends = ref None in
            let arr = Array.of_list all in
            let n = Array.length arr in
            let rec search k chosen =
              if List.length chosen = target then begin
                let ends =
                  List.sort compare
                    (List.map
                       (fun (f : Instance.full) ->
                         f.Instance.landmark.(Array.length f.Instance.landmark - 1))
                       chosen)
                in
                match !best_ends with
                | None -> best_ends := Some ends
                | Some b -> best_ends := Some (List.map2 min b ends)
              end
              else if k < n then begin
                if List.for_all (Instance.non_overlapping arr.(k)) chosen then
                  search (k + 1) (arr.(k) :: chosen);
                search (k + 1) chosen
              end
            in
            search 0 [];
            let our_ends =
              List.sort compare
                (List.map
                   (fun (f : Instance.full) ->
                     f.Instance.landmark.(Array.length f.Instance.landmark - 1))
                   ours)
            in
            match !best_ends with
            | None -> ok := false
            | Some b -> if not (List.for_all2 ( <= ) our_ends b) then ok := false
          end)
        db;
      !ok)

let prop_apriori_growth =
  make ~name:"Apriori: sup(P ◦ e) <= sup(P)" ~count:300
    QCheck2.Gen.(triple default_db default_pattern (int_bound 2))
    (fun (db, p, e) -> print_pair (db, p) ^ Printf.sprintf "\nevent: %d" e)
    (fun (db, p, e) ->
      let idx = Inverted_index.build db in
      Sup_comp.support idx (Pattern.grow p e) <= Sup_comp.support idx p)

let prop_apriori_deletion =
  make ~name:"Apriori: deleting any event never lowers support" ~count:200
    QCheck2.Gen.(pair default_db (gen_pattern ~alphabet:3 ~max_len:4))
    print_pair
    (fun (db, p) ->
      let idx = Inverted_index.build db in
      let sup = Sup_comp.support idx p in
      let m = Pattern.length p in
      m < 2
      || List.for_all
           (fun j ->
             let arr = Pattern.to_array p in
             let shorter =
               Pattern.of_array
                 (Array.append (Array.sub arr 0 j) (Array.sub arr (j + 1) (m - j - 1)))
             in
             Sup_comp.support idx shorter >= sup)
           (List.init m Fun.id))

let results_set results =
  List.sort_uniq compare
    (List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results)

let oracle_set oracle =
  List.sort_uniq compare (List.map (fun (q, s) -> (Pattern.to_string q, s)) oracle)

let prop_gsgrow_complete =
  make ~name:"GSgrow = exhaustive frequent set" ~count:120
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (int_range 1 4))
    (fun (db, ms) -> print_db db ^ Printf.sprintf "min_sup: %d" ms)
    (fun (db, min_sup) ->
      let idx = Inverted_index.build db in
      let got, _ = Gsgrow.mine idx ~min_sup in
      results_set got = oracle_set (Brute_force.frequent db ~min_sup))

let prop_clogsgrow_closed =
  make ~name:"CloGSgrow = exhaustive closed set" ~count:120
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (int_range 1 4))
    (fun (db, ms) -> print_db db ^ Printf.sprintf "min_sup: %d" ms)
    (fun (db, min_sup) ->
      let idx = Inverted_index.build db in
      let got, _ = Clogsgrow.mine idx ~min_sup in
      results_set got = oracle_set (Brute_force.closed db ~min_sup))

let prop_clogsgrow_lb_invariant =
  make ~name:"CloGSgrow: LBCheck does not change the output" ~count:120
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (int_range 1 4))
    (fun (db, ms) -> print_db db ^ Printf.sprintf "min_sup: %d" ms)
    (fun (db, min_sup) ->
      let idx = Inverted_index.build db in
      let with_lb, _ = Clogsgrow.mine idx ~min_sup in
      let without_lb, _ = Clogsgrow.mine ~use_lb_check:false idx ~min_sup in
      results_set with_lb = results_set without_lb)

(* Event ids spread by x997 put most databases on the hashtable fallback
   of [Alphabet.dense], so CCheck's dense gap bounds see sparse raw ids. *)
let sparse_scale = 997

let gen_sparse_db ~alphabet =
  QCheck2.Gen.(
    list_size (int_range 1 3)
      (list_size (int_bound 7) (int_bound (alphabet - 1) >|= fun e -> e * sparse_scale)
      >|= Sequence.of_list)
    >|= Seqdb.of_sequences)

(* Two databases of different alphabet sizes mined back to back on one
   domain: the per-domain CCheck scratch is reused, and regrown whenever
   the larger alphabet exceeds every one before it. *)
let prop_clogsgrow_closed_sparse =
  make ~name:"CloGSgrow = exhaustive closed set (sparse event ids)" ~count:80
    QCheck2.Gen.(
      triple (gen_sparse_db ~alphabet:3) (gen_sparse_db ~alphabet:6) (int_range 1 3))
    (fun (a, b, ms) ->
      print_db a ^ "\n" ^ print_db b ^ Printf.sprintf "\nmin_sup: %d" ms)
    (fun (a, b, min_sup) ->
      List.for_all
        (fun db ->
          let got, _ = Clogsgrow.mine (Inverted_index.build db) ~min_sup in
          results_set got = oracle_set (Brute_force.closed db ~min_sup))
        [ a; b; a ])

let prop_closure_check_absent_event =
  make ~name:"CCheck: a candidate absent from the db changes nothing" ~count:150
    QCheck2.Gen.(
      pair (gen_sparse_db ~alphabet:3)
        (gen_pattern ~alphabet:3 ~max_len:3
        >|= fun p -> Pattern.of_list (List.map (( * ) sparse_scale) (Pattern.to_list p))))
    print_pair
    (fun (db, p) ->
      let idx = Inverted_index.build db in
      let sup = Sup_comp.support idx p in
      sup = 0
      ||
      let arr = Pattern.to_array p in
      let prefix_sets =
        Array.init (Array.length arr) (fun j ->
            Sup_comp.support_set idx (Pattern.of_array (Array.sub arr 0 (j + 1))))
      in
      let support_set = prefix_sets.(Pattern.length p - 1) in
      let events = Inverted_index.events idx in
      let has_equal_append =
        List.exists
          (fun e -> Support_set.size (Support_set.grow idx support_set e) = sup)
          events
      in
      let verdict candidate_events =
        Closure.check idx ~candidate_events ~prefix_sets ~pattern:p ~support_set
          ~has_equal_append
      in
      let absent = [ (3 * sparse_scale) + 1; -1; 1 ] in
      verdict events = verdict (absent @ events @ absent))

let prop_closure_check_definition =
  make ~name:"CCheck agrees with closedness by definition" ~count:150
    QCheck2.Gen.(pair (gen_db ~num_seqs:3 ~alphabet:3 ~max_len:7) (gen_pattern ~alphabet:3 ~max_len:3))
    print_pair
    (fun (db, p) ->
      let idx = Inverted_index.build db in
      let sup = Sup_comp.support idx p in
      sup = 0
      ||
      (* definition: closed iff no frequent super-pattern (at threshold
         sup) properly contains p with equal support. *)
      let freq = Brute_force.frequent db ~min_sup:sup in
      let closed_def =
        not
          (List.exists
             (fun (q, s) ->
               s = sup
               && Pattern.length q > Pattern.length p
               && Pattern.is_subpattern p ~of_:q)
             freq)
      in
      Closure.is_closed idx p = closed_def)

let prop_insgrow_incremental =
  make ~name:"supComp(P ◦ e) = INSgrow(supComp(P), e)" ~count:300
    QCheck2.Gen.(triple default_db default_pattern (int_bound 2))
    (fun (db, p, e) -> print_pair (db, p) ^ Printf.sprintf "\nevent: %d" e)
    (fun (db, p, e) ->
      let idx = Inverted_index.build db in
      let grown_direct = Sup_comp.support_set idx (Pattern.grow p e) in
      let grown_incr = Support_set.grow idx (Sup_comp.support_set idx p) e in
      Support_set.equal grown_direct grown_incr)

let suite =
  [
    prop_support_matches_oracle;
    prop_support_set_valid;
    prop_leftmost_borders;
    prop_apriori_growth;
    prop_apriori_deletion;
    prop_gsgrow_complete;
    prop_clogsgrow_closed;
    prop_clogsgrow_lb_invariant;
    prop_closure_check_definition;
    prop_clogsgrow_closed_sparse;
    prop_closure_check_absent_event;
    prop_insgrow_incremental;
  ]
