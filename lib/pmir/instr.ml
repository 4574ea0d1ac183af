(** PMIR instructions.

    The instruction set mirrors the LLVM subset that persistent-memory
    programs and the Hippocrates pass care about: ordinary loads and stores,
    pointer arithmetic ([gep]), calls, branches — plus the x86 persistence
    primitives as first-class instructions: cache-line flushes ([clwb],
    [clflushopt], [clflush]) and memory fences ([sfence], [mfence]).

    [Crash] marks a simulated crash point: the instruction [I] of the
    paper's durability ordering "X -> F(X) -> M -> I". The bug finder
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
      (** [dst = base + offset] in bytes; kept distinct from [Add] because
          alias analysis propagates points-to facts through it *)
  | Alloca of { dst : string; size : int }  (** volatile stack allocation *)
  | Call of { dst : string option; callee : string; args : Value.t list }
  | Br of { target : string }
  | Condbr of { cond : Value.t; if_true : string; if_false : string }
  | Ret of Value.t option
  | Crash

type t = { iid : Iid.t; loc : Loc.t; op : op }

let make ~iid ~loc op = { iid; loc; op }

let iid t = t.iid
let loc t = t.loc
let op t = t.op

let with_op t op = { t with op }

(** The register defined by the instruction, if any. *)
let def t =
  match t.op with
  | Load { dst; _ } | Binop { dst; _ } | Mov { dst; _ } | Gep { dst; _ }
  | Alloca { dst; _ } ->
      Some dst
  | Call { dst; _ } -> dst
  | Store _ | Flush _ | Fence _ | Br _ | Condbr _ | Ret _ | Crash -> None

(** All operand values of the instruction, in syntactic order. *)
let operands t =
  match t.op with
  | Store { addr; value; _ } -> [ value; addr ]
  | Load { addr; _ } -> [ addr ]
  | Flush { addr; _ } -> [ addr ]
  | Fence _ -> []
  | Binop { lhs; rhs; _ } -> [ lhs; rhs ]
  | Mov { src; _ } -> [ src ]
  | Gep { base; offset; _ } -> [ base; offset ]
  | Alloca _ -> []
  | Call { args; _ } -> args
  | Br _ -> []
  | Condbr { cond; _ } -> [ cond ]
  | Ret (Some v) -> [ v ]
  | Ret None -> []
  | Crash -> []

(** Registers read by the instruction. *)
let uses t =
  match t.op with
  | Store { addr; value; _ } -> Value.uses addr @ Value.uses value
  | Load { addr; _ } -> Value.uses addr
  | Flush { addr; _ } -> Value.uses addr
  | Fence _ -> []
  | Binop { lhs; rhs; _ } -> Value.uses lhs @ Value.uses rhs
  | Mov { src; _ } -> Value.uses src
  | Gep { base; offset; _ } -> Value.uses base @ Value.uses offset
  | Alloca _ -> []
  | Call { args; _ } -> List.concat_map Value.uses args
  | Br _ -> []
  | Condbr { cond; _ } -> Value.uses cond
  | Ret (Some v) -> Value.uses v
  | Ret None -> []
  | Crash -> []

let is_terminator t =
  match t.op with Br _ | Condbr _ | Ret _ -> true | _ -> false

let is_store t = match t.op with Store _ -> true | _ -> false
let is_flush t = match t.op with Flush _ -> true | _ -> false
let is_fence t = match t.op with Fence _ -> true | _ -> false

let flush_kind_to_string = function
  | Clwb -> "clwb"
  | Clflushopt -> "clflushopt"
  | Clflush -> "clflush"

let flush_kind_of_string = function
  | "clwb" -> Some Clwb
  | "clflushopt" -> Some Clflushopt
  | "clflush" -> Some Clflush
  | _ -> None

let fence_kind_to_string = function Sfence -> "sfence" | Mfence -> "mfence"

let fence_kind_of_string = function
  | "sfence" -> Some Sfence
  | "mfence" -> Some Mfence
  | _ -> None

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let shl x n = x lsl (n land 63)
let lshr x n = x lsr (n land 63)

let binop_of_string = function
  | "add" -> Some Add
  | "sub" -> Some Sub
  | "mul" -> Some Mul
  | "div" -> Some Div
  | "rem" -> Some Rem
  | "and" -> Some And
  | "or" -> Some Or
  | "xor" -> Some Xor
  | "shl" -> Some Shl
  | "lshr" -> Some Lshr
  | "eq" -> Some Eq
  | "ne" -> Some Ne
  | "lt" -> Some Lt
  | "le" -> Some Le
  | "gt" -> Some Gt
  | "ge" -> Some Ge
  | _ -> None

(** Structural equality of operations, ignoring identities and locations.
    Used by round-trip property tests. *)
let op_equal (a : op) (b : op) =
  match (a, b) with
  | Store x, Store y ->
      Value.equal x.addr y.addr && Value.equal x.value y.value
      && x.size = y.size
      && Bool.equal x.nontemporal y.nontemporal
  | Load x, Load y ->
      String.equal x.dst y.dst && Value.equal x.addr y.addr && x.size = y.size
  | Flush x, Flush y -> x.kind = y.kind && Value.equal x.addr y.addr
  | Fence x, Fence y -> x.kind = y.kind
  | Binop x, Binop y ->
      String.equal x.dst y.dst && x.op = y.op && Value.equal x.lhs y.lhs
      && Value.equal x.rhs y.rhs
  | Mov x, Mov y -> String.equal x.dst y.dst && Value.equal x.src y.src
  | Gep x, Gep y ->
      String.equal x.dst y.dst && Value.equal x.base y.base
      && Value.equal x.offset y.offset
  | Alloca x, Alloca y -> String.equal x.dst y.dst && x.size = y.size
  | Call x, Call y ->
      Option.equal String.equal x.dst y.dst
      && String.equal x.callee y.callee
      && List.equal Value.equal x.args y.args
  | Br x, Br y -> String.equal x.target y.target
  | Condbr x, Condbr y ->
      Value.equal x.cond y.cond
      && String.equal x.if_true y.if_true
      && String.equal x.if_false y.if_false
  | Ret x, Ret y -> Option.equal Value.equal x y
  | Crash, Crash -> true
  | ( ( Store _ | Load _ | Flush _ | Fence _ | Binop _ | Mov _ | Gep _
      | Alloca _ | Call _ | Br _ | Condbr _ | Ret _ | Crash ),
      _ ) ->
      false

let pp_op ppf (o : op) =
  match o with
  | Store { addr; value; size; nontemporal } ->
      Fmt.pf ppf "store.i%d%s %a -> %a" (size * 8)
        (if nontemporal then ".nt" else "")
        Value.pp value Value.pp addr
  | Load { dst; addr; size } ->
      Fmt.pf ppf "%%%s = load.i%d %a" dst (size * 8) Value.pp addr
  | Flush { kind; addr } ->
      Fmt.pf ppf "flush.%s %a" (flush_kind_to_string kind) Value.pp addr
  | Fence { kind } -> Fmt.pf ppf "fence.%s" (fence_kind_to_string kind)
  | Binop { dst; op; lhs; rhs } ->
      Fmt.pf ppf "%%%s = %s %a, %a" dst (binop_to_string op) Value.pp lhs
        Value.pp rhs
  | Mov { dst; src } -> Fmt.pf ppf "%%%s = mov %a" dst Value.pp src
  | Gep { dst; base; offset } ->
      Fmt.pf ppf "%%%s = gep %a, %a" dst Value.pp base Value.pp offset
  | Alloca { dst; size } -> Fmt.pf ppf "%%%s = alloca %d" dst size
  | Call { dst; callee; args } -> (
      let pp_args = Fmt.list ~sep:(Fmt.any ", ") Value.pp in
      match dst with
      | Some d -> Fmt.pf ppf "%%%s = call @%s(%a)" d callee pp_args args
      | None -> Fmt.pf ppf "call @%s(%a)" callee pp_args args)
  | Br { target } -> Fmt.pf ppf "br %s" target
  | Condbr { cond; if_true; if_false } ->
      Fmt.pf ppf "condbr %a, %s, %s" Value.pp cond if_true if_false
  | Ret (Some v) -> Fmt.pf ppf "ret %a" Value.pp v
  | Ret None -> Fmt.string ppf "ret"
  | Crash -> Fmt.string ppf "crash"

let pp ppf t =
  if Loc.is_none t.loc then pp_op ppf t.op
  else Fmt.pf ppf "%a @@ \"%s\":%d" pp_op t.op (Loc.file t.loc) (Loc.line t.loc)

let to_string t = Fmt.str "%a" pp t
