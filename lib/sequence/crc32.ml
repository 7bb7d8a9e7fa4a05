(* Built eagerly at module initialisation: a [lazy] table forced by two
   domains at once raises [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let string s =
  let table = table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  (!c lxor 0xFFFFFFFF) land 0xFFFFFFFF

(* Checked gets: a CRC pass is cold-path work and an index bug here would
   read (or fault on) pages outside a mapping, so the bounds check stays.
   The annotation lets the compiler inline the get instead of calling the
   polymorphic C primitive per byte. *)
let bigarray (m : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t)
    ~pos ~len =
  let table = table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      table.((!c lxor Char.code (Bigarray.Array1.get m i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  (!c lxor 0xFFFFFFFF) land 0xFFFFFFFF
