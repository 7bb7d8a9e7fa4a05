(* The benchmark's corpora, generated through Rgs_datagen and packed with
   Store.write.

   Every corpus is the generator's output at the canonical seed 42 (the
   corpora behind data/jboss_traces.txt, data/quest_small.txt and
   data/quest_paper.config), with its sequence order shuffled by the
   workload seed; seed 42 keeps the generated order. Shuffling changes the
   packed bytes, the store digest and the index layout but not the amount
   of mining work, so runs with different seeds stay comparable. Drawing
   the generator seed itself from the workload seed does not: across
   generator seeds 1-4 the quest_closed_steal answer ranged from 14,104 to
   33,928 patterns and its wall time from 5.4 s to 10.7 s. *)

open Rgs_sequence
module Store = Rgs_store.Store

let canonical_seed = 42

(* How the corpus reaches the packer: the text format of its data/ file,
   parsed back, so the seed-42 store is byte-identical to packing that
   file with `rgsminer pack`. *)
type format =
  | Names of Codec.t  (** tokens, named events *)
  | Int_tokens  (** tokens, integer event names (rgsgen's QUEST output) *)
  | Spmf

type data = {
  text : string;  (** the corpus as a user hands it to the parser *)
  spmf : bool;
  db : Seqdb.t;
  codec : Codec.t option;  (** event names (tokens corpora) *)
}

(* Generated on first use, so a process that only needs the store path
   never holds the corpus. *)
type t = { name : string; data : data Lazy.t }

let render format db =
  match format with
  | Names codec -> Seq_io.print_tokens codec db
  | Spmf -> Seq_io.print_spmf db
  | Int_tokens ->
    let b = Buffer.create (8 * Seqdb.total_length db) in
    Seqdb.iter
      (fun _ s ->
        Buffer.add_string b
          (String.concat " " (List.map string_of_int (Sequence.to_list s)));
        Buffer.add_char b '\n')
      db;
    Buffer.contents b

let parse ~spmf text =
  if spmf then (Seq_io.parse_spmf text, None)
  else
    let db, codec = Seq_io.parse_tokens text in
    (db, Some codec)

let make ~seed name generate =
  let data =
    lazy
      (let generated, format = generate () in
       let db =
         if seed = canonical_seed then generated
         else begin
           let seqs = Array.copy (Seqdb.sequences generated) in
           Rgs_datagen.Splitmix.shuffle (Rgs_datagen.Splitmix.create ~seed) seqs;
           Seqdb.of_array seqs
         end
       in
       let spmf = format = Spmf in
       let text = render format db in
       let db, codec = parse ~spmf text in
       { text; spmf; db; codec })
  in
  { name; data }

let quest ~seed name format ~d ~c ~n ~s =
  make ~seed name (fun () ->
      let params = Rgs_datagen.Quest_gen.params ~d ~c ~n ~s ~seed:canonical_seed () in
      (Rgs_datagen.Quest_gen.generate params, format))

(* data/quest_paper.config (D500C1000N120S20, ~500k events), written as
   SPMF by `experiments gen-quest` *)
let quest_paper ~seed = quest ~seed "quest_paper" Spmf ~d:500 ~c:1000 ~n:120 ~s:20

(* the paper's Fig. 2 corpus D5C20N10S20, cut to D=500 sequences, as
   `rgsgen quest -D 500` writes it *)
let quest_fig2 ~seed = quest ~seed "quest_d500c20n10s20" Int_tokens ~d:500 ~c:20 ~n:10000 ~s:20

(* data/quest_small.txt *)
let quest_small ~seed = quest ~seed "quest_small" Int_tokens ~d:200 ~c:15 ~n:100 ~s:5

(* data/jboss_traces.txt *)
let jboss ~seed =
  make ~seed "jboss" (fun () ->
      let db, codec =
        Rgs_datagen.Jboss_gen.generate (Rgs_datagen.Jboss_gen.params ~seed:canonical_seed ())
      in
      (db, Names codec))

let store_path ~dir t = Filename.concat dir (t.name ^ ".rgsdb")
let pack ~dir t =
  let d = Lazy.force t.data in
  Store.write ?codec:d.codec ~path:(store_path ~dir t) d.db

let parse_text t =
  let d = Lazy.force t.data in
  ignore (parse ~spmf:d.spmf d.text)
let digest ~dir t = Store.digest (Store.open_store (store_path ~dir t))
