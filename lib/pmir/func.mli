(** PMIR functions: a parameter list and an ordered list of labelled basic
    blocks. The first block is the entry block. Registers (including
    parameters) are function-local and mutable, so loops are expressed by
    reassignment rather than phi nodes. *)

type block = { label : string; instrs : Instr.t list }

type t

val make : name:string -> params:string list -> blocks:block list -> t
val name : t -> string
val params : t -> string list
val blocks : t -> block list

(** The entry block; raises [Invalid_argument] on an empty function. *)
val entry : t -> block

val find_block : t -> string -> block option

(** All instructions, in block order. *)
val instrs : t -> Instr.t list

(** [find_instr t iid] returns the instruction with identity [iid]. *)
val find_instr : t -> Iid.t -> Instr.t option

val map_blocks : (block -> block) -> t -> t

(** [map_instrs f t] rebuilds every block by applying [f] to each
    instruction; [f] returns the list of instructions replacing it, which
    is how flush/fence insertion is implemented. Blocks that [f] leaves
    unchanged (every instruction mapped to itself, physically) are shared
    with [t]; when all are, the result is [t] itself. *)
val map_instrs : (Instr.t -> Instr.t list) -> t -> t

val fold_instrs : ('a -> Instr.t -> 'a) -> 'a -> t -> 'a

(** All registers defined anywhere in the function, parameters included. *)
val defined_regs : t -> string list

(** Call sites in block order: [(identity, callee, arguments)]. *)
val call_sites : t -> (Iid.t * string * Value.t list) list

(** Structural equality up to instruction identities and locations. *)
val equal_modulo_iid : t -> t -> bool
