(** Abstract machine state (see the interface for the two-layer design). *)

open Hippo_pmir
open Hippo_pmcheck
module ISet = Hippo_alias.Andersen.ISet

type sym =
  | Ptr of { oids : ISet.t; off : int option }
  | Addr of int
  | Int of int
  | Unknown

let sym_equal a b =
  match (a, b) with
  | Ptr a, Ptr b -> ISet.equal a.oids b.oids && a.off = b.off
  | Addr a, Addr b -> a = b
  | Int a, Int b -> a = b
  | Unknown, Unknown -> true
  | (Ptr _ | Addr _ | Int _ | Unknown), _ -> false

let sym_join a b =
  match (a, b) with
  | Ptr a, Ptr b ->
      Ptr
        {
          oids = ISet.union a.oids b.oids;
          off = (if a.off = b.off then a.off else None);
        }
  | Addr a', Addr b' -> if a' = b' then a else Unknown
  | Int a', Int b' -> if a' = b' then a else Unknown
  | _ -> Unknown

let pp_sym ppf = function
  | Ptr { oids; off } ->
      Fmt.pf ppf "ptr{%a}%s"
        Fmt.(list ~sep:comma int)
        (ISet.elements oids)
        (match off with Some o -> Fmt.str "+%d" o | None -> "+?")
  | Addr a -> Fmt.pf ppf "addr:0x%x" a
  | Int n -> Fmt.pf ppf "int:%d" n
  | Unknown -> Fmt.string ppf "?"

type srec = {
  store_iid : Iid.t;
  store_loc : Loc.t;
  size : int;
  chain : Trace.stack;
  line : int option;
  pstate : Lattice.t;
  fence_after : bool;
  flushed_by : Iid.t option;
}

module Key = struct
  type t = { oid : int; iid : Iid.t; sites : (string * int option) list }

  let compare a b =
    let c = Int.compare a.oid b.oid in
    if c <> 0 then c
    else
      let c = Iid.compare a.iid b.iid in
      if c <> 0 then c
      else
        List.compare
          (fun (f1, s1) (f2, s2) ->
            let c = String.compare f1 f2 in
            if c <> 0 then c else Option.compare Int.compare s1 s2)
          a.sites b.sites
end

module KMap = Map.Make (Key)
module Env = Map.Make (String)

(* Chains are keyed by their call sites (function + callsite serial), the
   same identity [Report.same_static_bug] uses: locations are display
   metadata and must not split records. *)
let chain_sites (chain : Trace.stack) =
  List.map
    (fun (f : Trace.frame) ->
      (f.Trace.func, Option.map Iid.serial f.Trace.callsite))
    chain

let key_of ~oid ~iid ~chain = { Key.oid; iid; sites = chain_sites chain }

type t = { env : sym Env.t; locs : Lattice.t KMap.t; mem : srec KMap.t }

let empty = { env = Env.empty; locs = KMap.empty; mem = KMap.empty }
let forget_env t = { t with env = Env.empty }

let lookup t r = match Env.find_opt r t.env with Some s -> s | None -> Unknown

let bind t r s =
  if s = Unknown then { t with env = Env.remove r t.env }
  else { t with env = Env.add r s t.env }

let loc_key oid = { Key.oid; iid = Iid.of_serial ~func:"" 0; sites = [] }

let loc_state t oid =
  match KMap.find_opt (loc_key oid) t.locs with
  | Some l -> l
  | None -> Lattice.bot

let set_loc t oid l = { t with locs = KMap.add (loc_key oid) l t.locs }

let join_rec (a : srec) (b : srec) : srec =
  {
    a with
    pstate = Lattice.join a.pstate b.pstate;
    (* a fence is guaranteed after the store only if guaranteed on both
       incoming paths, and only while both paths agree on the state: a
       fenced Dirty record (never flushed) joined with a fenced
       Flush_pending one (clwb'd after the fence) is a missing flush on
       one path and a missing fence on the other, so the joined Dirty
       must report missing-flush&fence to cover both *)
    fence_after =
      a.fence_after && b.fence_after && Lattice.equal a.pstate b.pstate;
    line = (if a.line = b.line then a.line else None);
    flushed_by =
      (match (a.flushed_by, b.flushed_by) with
      | Some f, _ -> Some f
      | None, o -> o);
  }

let join a b =
  {
    env =
      Env.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y ->
              let j = sym_join x y in
              if j = Unknown then None else Some j
          | _ -> None)
        a.env b.env;
    locs =
      KMap.union (fun _ x y -> Some (Lattice.join x y)) a.locs b.locs;
    mem = KMap.union (fun _ x y -> Some (join_rec x y)) a.mem b.mem;
  }

let rec_equal (a : srec) (b : srec) =
  Lattice.equal a.pstate b.pstate
  && a.fence_after = b.fence_after
  && a.line = b.line
  && Option.equal Iid.equal a.flushed_by b.flushed_by

let equal a b =
  Env.equal sym_equal a.env b.env
  && KMap.equal Lattice.equal a.locs b.locs
  && KMap.equal rec_equal a.mem b.mem

let records t = KMap.bindings t.mem

let pp ppf t =
  let pp_rec ppf ((k : Key.t), (r : srec)) =
    Fmt.pf ppf "o%d %a %a%s%s" k.Key.oid Iid.pp r.store_iid Lattice.pp
      r.pstate
      (match r.line with Some l -> Fmt.str " line:%d" l | None -> "")
      (if r.fence_after then " fence-after" else "")
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_rec) (records t)
