(** Kept only for [benchmark/fuzz_campaign.ml], which calls {!call} and
    may not be edited outside a benchmark revision. Everything else calls
    {!Interp.call} directly; the next benchmark revision should switch to
    it and delete this module. *)

(** [call] is {!Interp.call}. *)
val call : Machine.t -> string -> int list -> int
