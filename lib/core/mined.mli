(** Mined pattern records shared by {!Gsgrow}, {!Clogsgrow} and the
    {!Miner} facade.

    A result carries no support set: those live only in {!Engine} frames
    on the DFS stack. Recompute one with {!Sup_comp.support_set}. *)

type t = {
  pattern : Pattern.t;
  support : int;  (** repetitive support [sup(pattern)] *)
}

val compare_by_support_desc : t -> t -> int
(** Orders by decreasing support, then by increasing length, then
    lexicographically — a stable presentation order for reports. *)

val compare_by_length_desc : t -> t -> int
(** Orders by decreasing pattern length (the case study's ranking step),
    then by decreasing support, then lexicographically. *)

val pp : Format.formatter -> t -> unit

val pp_with : Rgs_sequence.Codec.t -> Format.formatter -> t -> unit
