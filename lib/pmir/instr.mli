(** PMIR instructions.

    The instruction set mirrors the LLVM subset that persistent-memory
    programs and the Hippocrates pass care about: ordinary loads and
    stores, pointer arithmetic ([gep]), calls, branches — plus the x86
    persistence primitives as first-class instructions: cache-line flushes
    ([clwb], [clflushopt], [clflush]) and memory fences ([sfence],
    [mfence]).

    [Crash] marks a simulated crash point: the instruction [I] of the
    paper's durability ordering [X -> F(X) -> M -> I]. The bug finder
    reports every PM store not yet durable when a crash point (or program
    exit) is reached. *)

type flush_kind =
  | Clwb  (** weakly ordered write-back, needs a fence; keeps the line *)
  | Clflushopt  (** weakly ordered flush-and-evict, needs a fence *)
  | Clflush  (** legacy serialized flush; durable without a fence *)

type fence_kind =
  | Sfence  (** orders stores and flushes *)
  | Mfence  (** orders all memory operations *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type op =
  | Store of { addr : Value.t; value : Value.t; size : int; nontemporal : bool }
  | Load of { dst : string; addr : Value.t; size : int }
  | Flush of { kind : flush_kind; addr : Value.t }
  | Fence of { kind : fence_kind }
  | Binop of { dst : string; op : binop; lhs : Value.t; rhs : Value.t }
  | Mov of { dst : string; src : Value.t }
  | Gep of { dst : string; base : Value.t; offset : Value.t }
      (** [dst = base + offset] in bytes; distinct from [Add] because alias
          analysis propagates points-to facts through it *)
  | Alloca of { dst : string; size : int }  (** volatile stack allocation *)
  | Call of { dst : string option; callee : string; args : Value.t list }
  | Br of { target : string }
  | Condbr of { cond : Value.t; if_true : string; if_false : string }
  | Ret of Value.t option
  | Crash

type t

val make : iid:Iid.t -> loc:Loc.t -> op -> t
val iid : t -> Iid.t
val loc : t -> Loc.t
val op : t -> op

(** [with_op t op] keeps the identity and location, replaces the
    operation (used when retargeting call sites). *)
val with_op : t -> op -> t

(** The register defined by the instruction, if any. *)
val def : t -> string option

(** All operand values, in syntactic order. *)
val operands : t -> Value.t list

(** Registers read by the instruction. *)
val uses : t -> string list

val is_terminator : t -> bool
val is_store : t -> bool
val is_flush : t -> bool
val is_fence : t -> bool

val flush_kind_to_string : flush_kind -> string
val flush_kind_of_string : string -> flush_kind option
val fence_kind_to_string : fence_kind -> string
val fence_kind_of_string : string -> fence_kind option
val binop_to_string : binop -> string

(** Shift semantics, shared by the interpreter and the static constant
    fold. The amount is taken modulo 64 (its low six bits), so every
    amount is defined; on PMIR's 63-bit integers a shift by 63 yields 0. *)
val shl : int -> int -> int

val lshr : int -> int -> int
val binop_of_string : string -> binop option

(** Structural equality of operations, ignoring identities and locations
    (the round-trip property's notion of equality). *)
val op_equal : op -> op -> bool

val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
