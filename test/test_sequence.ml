(* Unit tests for the rgs_sequence substrate: events, codecs, sequences,
   databases, I/O and the inverted index. *)

open Rgs_sequence

(* --- Codec --- *)

let test_codec_roundtrip () =
  let c = Codec.create () in
  let a = Codec.intern c "alpha" in
  let b = Codec.intern c "beta" in
  Alcotest.(check int) "first id" 0 a;
  Alcotest.(check int) "second id" 1 b;
  Alcotest.(check int) "reintern" a (Codec.intern c "alpha");
  Alcotest.(check string) "name" "beta" (Codec.name c b);
  Alcotest.(check (option int)) "find" (Some 0) (Codec.find c "alpha");
  Alcotest.(check (option int)) "find missing" None (Codec.find c "gamma");
  Alcotest.(check int) "size" 2 (Codec.size c);
  Alcotest.(check (list int)) "alphabet" [ 0; 1 ] (Codec.alphabet c)

let test_codec_growth () =
  let c = Codec.create ~capacity:1 () in
  let ids = List.init 100 (fun i -> Codec.intern c (string_of_int i)) in
  Alcotest.(check (list int)) "dense ids" (List.init 100 Fun.id) ids;
  Alcotest.(check string) "name 99" "99" (Codec.name c 99)

let test_codec_bad_name () =
  let c = Codec.create () in
  Alcotest.check_raises "unknown id" (Invalid_argument "Codec.name: unknown event id 5")
    (fun () -> ignore (Codec.name c 5));
  Alcotest.(check (option string)) "name_opt" None (Codec.name_opt c 5)

(* --- Sequence --- *)

let test_sequence_basics () =
  let s = Sequence.of_string "ABCA" in
  Alcotest.(check int) "length" 4 (Sequence.length s);
  Alcotest.(check int) "get 1" 0 (Sequence.get s 1);
  Alcotest.(check int) "get 4" 0 (Sequence.get s 4);
  Alcotest.(check (list int)) "events" [ 0; 1; 2 ] (Sequence.events s);
  Alcotest.(check int) "count A" 2 (Sequence.count s 0);
  Alcotest.(check int) "count D" 0 (Sequence.count s 3);
  Alcotest.(check bool) "not empty" false (Sequence.is_empty s);
  Alcotest.(check bool) "empty" true (Sequence.is_empty (Sequence.of_list []))

let test_sequence_bounds () =
  let s = Sequence.of_string "AB" in
  Alcotest.check_raises "get 0" (Invalid_argument "Sequence.get: position 0 out of [1;2]")
    (fun () -> ignore (Sequence.get s 0));
  Alcotest.check_raises "get 3" (Invalid_argument "Sequence.get: position 3 out of [1;2]")
    (fun () -> ignore (Sequence.get s 3))

let test_sequence_of_string_invalid () =
  Alcotest.check_raises "lowercase" (Invalid_argument "Sequence.of_string: bad char 'a'")
    (fun () -> ignore (Sequence.of_string "aB"))

let test_sequence_sub_append () =
  let s = Sequence.of_string "ABCDE" in
  Alcotest.(check bool) "sub" true
    (Sequence.equal (Sequence.sub s ~pos:2 ~len:3) (Sequence.of_string "BCD"));
  Alcotest.(check bool) "append" true
    (Sequence.equal
       (Sequence.append (Sequence.of_string "AB") (Sequence.of_string "CD"))
       (Sequence.of_string "ABCD"))

let test_sequence_iteri () =
  let s = Sequence.of_string "ABC" in
  let seen = ref [] in
  Sequence.iteri (fun i e -> seen := (i, e) :: !seen) s;
  Alcotest.(check (list (pair int int))) "1-based" [ (3, 2); (2, 1); (1, 0) ] !seen

let test_sequence_pp () =
  Alcotest.(check string) "letters" "ABC"
    (Format.asprintf "%a" Sequence.pp (Sequence.of_string "ABC"));
  Alcotest.(check string) "ids" "<0 27>"
    (Format.asprintf "%a" Sequence.pp (Sequence.of_list [ 0; 27 ]))

(* --- Seqdb --- *)

let db = Seqdb.of_strings [ "ABCABCA"; "AABBCCC" ]

let test_seqdb_basics () =
  Alcotest.(check int) "size" 2 (Seqdb.size db);
  Alcotest.(check int) "total_length" 14 (Seqdb.total_length db);
  Alcotest.(check int) "max_length" 7 (Seqdb.max_length db);
  Alcotest.(check (list int)) "alphabet" [ 0; 1; 2 ] (Seqdb.alphabet db);
  Alcotest.(check int) "event_count A" 5 (Seqdb.event_count db 0);
  Alcotest.(check int) "event_count C" 5 (Seqdb.event_count db 2);
  Alcotest.(check bool) "seq 1" true
    (Sequence.equal (Seqdb.seq db 1) (Sequence.of_string "ABCABCA"))

let test_seqdb_bounds () =
  Alcotest.check_raises "seq 0" (Invalid_argument "Seqdb.seq: index 0 out of [1;2]")
    (fun () -> ignore (Seqdb.seq db 0))

let test_seqdb_stats () =
  let st = Seqdb.stats db in
  Alcotest.(check int) "sequences" 2 st.Seqdb.num_sequences;
  Alcotest.(check int) "events" 3 st.Seqdb.num_events;
  Alcotest.(check int) "min" 7 st.Seqdb.min_length;
  Alcotest.(check int) "max" 7 st.Seqdb.max_length;
  Alcotest.(check (float 0.001)) "avg" 7.0 st.Seqdb.avg_length

(* --- Seq_io --- *)

let test_io_tokens_roundtrip () =
  let text = "login view buy\nlogin logout\n# comment\n\nview view\n" in
  let parsed, codec = Seq_io.parse_tokens text in
  Alcotest.(check int) "3 sequences" 3 (Seqdb.size parsed);
  Alcotest.(check int) "4 names" 4 (Codec.size codec);
  let printed = Seq_io.print_tokens codec parsed in
  let reparsed, _ = Seq_io.parse_tokens ~codec printed in
  Alcotest.(check bool) "roundtrip" true (Seqdb.equal parsed reparsed)

let test_io_spmf_roundtrip () =
  let text = "1 -1 2 -1 3 -2\n4 -1 4 -2\n" in
  let parsed = Seq_io.parse_spmf text in
  Alcotest.(check int) "2 sequences" 2 (Seqdb.size parsed);
  Alcotest.(check (list int)) "seq 1" [ 1; 2; 3 ] (Sequence.to_list (Seqdb.seq parsed 1));
  let reparsed = Seq_io.parse_spmf (Seq_io.print_spmf parsed) in
  Alcotest.(check bool) "roundtrip" true (Seqdb.equal parsed reparsed)

let test_io_spmf_malformed () =
  Alcotest.check_raises "trailing"
    (Seq_io.Parse_error { line = 1; msg = "trailing events without -2 terminator" })
    (fun () -> ignore (Seq_io.parse_spmf "1 2 3"));
  Alcotest.check_raises "bad token"
    (Seq_io.Parse_error { line = 2; msg = "bad token \"x\"" })
    (fun () -> ignore (Seq_io.parse_spmf "1 -2\n1 x -2"));
  Alcotest.check_raises "bad event"
    (Seq_io.Parse_error { line = 1; msg = "bad event -7" })
    (fun () -> ignore (Seq_io.parse_spmf "-7 -2"))

let test_io_spmf_lenient () =
  (* skip the malformed middle line, keep the well-formed rest *)
  let db, skipped = Seq_io.parse_spmf_report ~strict:false "1 2 -2\n1 x -2\n3 -2\n" in
  Alcotest.(check int) "skipped count" 1 skipped;
  Alcotest.(check int) "2 sequences kept" 2 (Seqdb.size db);
  Alcotest.(check (list int)) "seq 2" [ 3 ] (Sequence.to_list (Seqdb.seq db 2));
  (* trailing events at EOF count as one skipped line *)
  let db, skipped = Seq_io.parse_spmf_report ~strict:false "1 -2\n2 3" in
  Alcotest.(check int) "trailing skipped" 1 skipped;
  Alcotest.(check int) "1 sequence" 1 (Seqdb.size db);
  (* strict report never skips *)
  let _, skipped = Seq_io.parse_spmf_report "1 -2\n" in
  Alcotest.(check int) "strict skips none" 0 skipped

let test_io_chars_malformed () =
  (match Seq_io.parse_chars "AB\na!\n" with
  | exception Seq_io.Parse_error { line = 2; _ } -> ()
  | exception e -> raise e
  | _ -> Alcotest.fail "expected Parse_error on line 2");
  let db, skipped = Seq_io.parse_chars_report ~strict:false "AB\na!\nBA\n" in
  Alcotest.(check int) "skipped" 1 skipped;
  Alcotest.(check int) "kept" 2 (Seqdb.size db)

let test_io_chars () =
  let parsed = Seq_io.parse_chars "AB\nBA\n" in
  Alcotest.(check int) "2 seqs" 2 (Seqdb.size parsed);
  Alcotest.(check (list int)) "seq 2" [ 1; 0 ] (Sequence.to_list (Seqdb.seq parsed 2))

let test_io_files () =
  let path = Filename.temp_file "rgs_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let codec = Codec.of_names [ "x"; "y" ] in
      let original = Seqdb.of_sequences [ Sequence.of_list [ 0; 1; 0 ] ] in
      Seq_io.save_tokens codec original path;
      let loaded, _ = Seq_io.load_tokens ~codec path in
      Alcotest.(check bool) "file roundtrip" true (Seqdb.equal original loaded))

(* --- Inverted index --- *)

let idx = Inverted_index.build db

let test_index_positions () =
  Alcotest.(check (list int)) "A in S1" [ 1; 4; 7 ]
    (Array.to_list (Inverted_index.positions idx ~seq:1 0));
  Alcotest.(check (list int)) "C in S2" [ 5; 6; 7 ]
    (Array.to_list (Inverted_index.positions idx ~seq:2 2));
  Alcotest.(check (list int)) "missing event" []
    (Array.to_list (Inverted_index.positions idx ~seq:1 9))

let test_index_next () =
  Alcotest.(check (option int)) "next A after 0" (Some 1)
    (Inverted_index.next idx ~seq:1 0 ~lowest:0);
  Alcotest.(check (option int)) "next A after 1" (Some 4)
    (Inverted_index.next idx ~seq:1 0 ~lowest:1);
  Alcotest.(check (option int)) "next A after 6" (Some 7)
    (Inverted_index.next idx ~seq:1 0 ~lowest:6);
  Alcotest.(check (option int)) "next A after 7" None
    (Inverted_index.next idx ~seq:1 0 ~lowest:7);
  Alcotest.(check (option int)) "next missing" None
    (Inverted_index.next idx ~seq:2 9 ~lowest:0)

let test_index_counts () =
  Alcotest.(check int) "occurrences A" 5 (Inverted_index.occurrence_count idx 0);
  Alcotest.(check int) "occurrences missing" 0 (Inverted_index.occurrence_count idx 9);
  Alcotest.(check (list int)) "events" [ 0; 1; 2 ] (Inverted_index.events idx);
  Alcotest.(check (list int)) "frequent >= 5" [ 0; 2 ]
    (Inverted_index.frequent_events idx ~min_sup:5)

(* next() agrees with a linear scan on every position of every sequence. *)
let test_index_next_exhaustive () =
  Seqdb.iter
    (fun i s ->
      List.iter
        (fun e ->
          for lowest = 0 to Sequence.length s do
            let linear = ref None in
            (try
               for pos = lowest + 1 to Sequence.length s do
                 if Sequence.get s pos = e then begin
                   linear := Some pos;
                   raise Exit
                 end
               done
             with Exit -> ());
            Alcotest.(check (option int))
              (Printf.sprintf "next S%d e%d lowest=%d" i e lowest)
              !linear
              (Inverted_index.next idx ~seq:i e ~lowest)
          done)
        (Seqdb.alphabet db))
    db

(* Four domains checksum at once from a common start: the table is built
   at module initialisation, so no domain can observe it half-built. *)
let test_crc32_concurrent () =
  let check = "123456789" in
  let ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do Domain.cpu_relax () done;
    let bytes =
      Bigarray.Array1.init Bigarray.char Bigarray.c_layout (String.length check)
        (String.get check)
    in
    List.init 200 (fun _ ->
        (Crc32.string check, Crc32.bigarray bytes ~pos:0 ~len:(String.length check)))
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter
    (fun d ->
      List.iter
        (fun (s, b) ->
          Alcotest.(check int) "string check value" 0xCBF43926 s;
          Alcotest.(check int) "bigarray check value" 0xCBF43926 b)
        (Domain.join d))
    domains

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec growth" `Quick test_codec_growth;
    Alcotest.test_case "codec bad name" `Quick test_codec_bad_name;
    Alcotest.test_case "sequence basics" `Quick test_sequence_basics;
    Alcotest.test_case "sequence bounds" `Quick test_sequence_bounds;
    Alcotest.test_case "sequence of_string invalid" `Quick test_sequence_of_string_invalid;
    Alcotest.test_case "sequence sub/append" `Quick test_sequence_sub_append;
    Alcotest.test_case "sequence iteri 1-based" `Quick test_sequence_iteri;
    Alcotest.test_case "sequence pp" `Quick test_sequence_pp;
    Alcotest.test_case "seqdb basics" `Quick test_seqdb_basics;
    Alcotest.test_case "seqdb bounds" `Quick test_seqdb_bounds;
    Alcotest.test_case "seqdb stats" `Quick test_seqdb_stats;
    Alcotest.test_case "io tokens roundtrip" `Quick test_io_tokens_roundtrip;
    Alcotest.test_case "io spmf roundtrip" `Quick test_io_spmf_roundtrip;
    Alcotest.test_case "io spmf malformed" `Quick test_io_spmf_malformed;
    Alcotest.test_case "io spmf lenient" `Quick test_io_spmf_lenient;
    Alcotest.test_case "io chars malformed" `Quick test_io_chars_malformed;
    Alcotest.test_case "io chars" `Quick test_io_chars;
    Alcotest.test_case "io files" `Quick test_io_files;
    Alcotest.test_case "index positions" `Quick test_index_positions;
    Alcotest.test_case "index next" `Quick test_index_next;
    Alcotest.test_case "index counts" `Quick test_index_counts;
    Alcotest.test_case "index next exhaustive" `Quick test_index_next_exhaustive;
    Alcotest.test_case "crc32 from 4 domains" `Quick test_crc32_concurrent;
  ]
