(** CRC-32 (zlib polynomial, FORMAT.md §1.4) of checkpoint, wire and
    store frames. Safe from many domains at once;
    [string "123456789" = 0xCBF43926]. *)

val string : string -> int

val bigarray :
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  pos:int ->
  len:int ->
  int
(** Bytes [pos .. pos + len - 1] of a buffer, e.g. a mapped file.
    @raise Invalid_argument when the range leaves the buffer. *)
