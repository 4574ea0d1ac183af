(** Byte-addressable simulated memory.

    The working PM image is what loads observe; the persisted image is what
    survives a crash. Stores touch only the working image; the persistency
    state machine ({!Pstate}) copies ranges into the persisted image when
    they become durable (flush + fence, or [clflush]).

    With [~track_images:true] the memory additionally maintains, at O(bytes
    changed) per operation, a live {!Imghash} fingerprint of both images
    plus a touched-bytes watermark — the machinery behind the single-pass
    crash sweep's image capture and deduplication ({!Crashsim}). *)

exception Trap of string

let trap fmt = Fmt.kstr (fun m -> raise (Trap m)) fmt

(** Image-capture state, allocated only when tracking is on. Bytes at or
    beyond [hi] are untouched since creation, hence equal to [pm_initial]
    in {e both} images — a snapshot need only copy the [hi]-byte prefix. *)
type tracker = {
  pm_initial : Bytes.t;  (** the creation-time image, shared by snapshots *)
  work_hash : Imghash.t;
  dur_hash : Imghash.t;
  mutable hi : int;  (** touched-bytes watermark (PM offset, exclusive) *)
  old_buf : int array;  (** scratch for a store's pre-image (<= 8 bytes) *)
}

type t = {
  vol : Bytes.t;
  stack : Bytes.t;
  globals : Bytes.t;
  pm : Bytes.t;  (** working image: CPU-cache view of PM *)
  pm_persisted : Bytes.t;  (** durable image: what a crash preserves *)
  mutable vol_brk : int;
  mutable stack_brk : int;
  mutable pm_brk : int;
  global_addrs : (string * int) list;
  track : tracker option;
}

let align8 n = (n + 7) land lnot 7

let create ?(vol_size = 1 lsl 24) ?(stack_size = 1 lsl 22)
    ?(global_size = 1 lsl 20) ?(pm_size = 1 lsl 24) ?pm_image ?(pm_brk = 0)
    ?(track_images = false) (globals : (string * int) list) =
  let pm =
    match pm_image with
    | Some img ->
        if Bytes.length img <> pm_size then
          invalid_arg "Mem.create: pm_image size mismatch";
        Bytes.copy img
    | None -> Bytes.make pm_size '\000'
  in
  let global_addrs, _ =
    List.fold_left
      (fun (acc, off) (name, size) ->
        if off + size > global_size then trap "global segment overflow";
        ((name, Layout.global_base + off) :: acc, off + align8 size))
      ([], 0) globals
  in
  let track =
    if not track_images then None
    else
      (* Both images start equal to the seed, so one scratch fingerprint
         seeds both lanes; an unseeded (all-zero) image costs nothing. *)
      let h =
        match pm_image with None -> Imghash.create () | Some _ -> Imghash.of_bytes pm
      in
      Some
        {
          pm_initial = Bytes.copy pm;
          work_hash = h;
          dur_hash = Imghash.copy h;
          hi = 0;
          old_buf = Array.make 8 0;
        }
  in
  {
    vol = Bytes.make vol_size '\000';
    stack = Bytes.make stack_size '\000';
    globals = Bytes.make global_size '\000';
    pm;
    pm_persisted = Bytes.copy pm;
    vol_brk = 0;
    stack_brk = 0;
    pm_brk;
    global_addrs;
    track;
  }

let global_addr t name =
  match List.assoc_opt name t.global_addrs with
  | Some a -> a
  | None -> trap "unknown global @%s" name

(* Region resolution: returns the backing buffer and the offset within it. *)
let resolve t addr size =
  let check buf base =
    let off = addr - base in
    if off < 0 || off + size > Bytes.length buf then
      trap "out-of-bounds access at 0x%x (size %d)" addr size;
    (buf, off)
  in
  match Layout.region_of_addr addr with
  | Layout.Vol_heap -> check t.vol Layout.vol_base
  | Layout.Stack -> check t.stack Layout.stack_base
  | Layout.Globals -> check t.globals Layout.global_base
  | Layout.Pm -> check t.pm Layout.pm_base
  | Layout.Null_page -> trap "null-page access at 0x%x" addr
  | Layout.Wild -> trap "wild access at 0x%x" addr

let load t ~addr ~size =
  let buf, off = resolve t addr size in
  match size with
  | 1 -> Bytes.get_uint8 buf off
  | 2 -> Bytes.get_uint16_le buf off
  | 4 -> Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le buf off)
  | _ -> trap "bad load size %d" size

let write_value buf off size v =
  match size with
  | 1 -> Bytes.set_uint8 buf off (v land 0xFF)
  | 2 -> Bytes.set_uint16_le buf off (v land 0xFFFF)
  | 4 -> Bytes.set_int32_le buf off (Int32.of_int v)
  | 8 ->
      (* PMIR is a 63-bit machine (OCaml ints). Mask the sign extension so
         byte 7 of a stored word round-trips through byte-wise loads. *)
      Bytes.set_int64_le buf off
        (Int64.logand (Int64.of_int v) 0x7FFF_FFFF_FFFF_FFFFL)
  | _ -> trap "bad store size %d" size

let store t ~addr ~size v =
  let buf, off = resolve t addr size in
  match t.track with
  | Some tr when Layout.is_pm addr ->
      for k = 0 to size - 1 do
        tr.old_buf.(k) <- Bytes.get_uint8 buf (off + k)
      done;
      write_value buf off size v;
      for k = 0 to size - 1 do
        Imghash.update tr.work_hash ~off:(off + k) ~old_byte:tr.old_buf.(k)
          ~new_byte:(Bytes.get_uint8 buf (off + k))
      done;
      if off + size > tr.hi then tr.hi <- off + size
  | _ -> write_value buf off size v

(* Copy [len] working/snapshot bytes into the persisted image at [off],
   keeping the durable fingerprint current byte by byte. *)
let persist_tracked tr dst ~off ~len ~byte_at =
  for k = off to off + len - 1 do
    let old_byte = Bytes.get_uint8 dst k in
    let new_byte = byte_at k in
    if old_byte <> new_byte then begin
      Imghash.update tr.dur_hash ~off:k ~old_byte ~new_byte;
      Bytes.set_uint8 dst k new_byte
    end
  done;
  if off + len > tr.hi then tr.hi <- off + len

(** [persist_range t ~addr ~size] copies working PM content into the
    persisted image (called by {!Pstate} when a range becomes durable). *)
let persist_range t ~addr ~size =
  let off = addr - Layout.pm_base in
  if off < 0 || off + size > Bytes.length t.pm then
    trap "persist_range outside PM at 0x%x" addr;
  match t.track with
  | Some tr ->
      persist_tracked tr t.pm_persisted ~off ~len:size ~byte_at:(fun k ->
          Bytes.get_uint8 t.pm k)
  | None -> Bytes.blit t.pm off t.pm_persisted off size

(** [persist_string t ~addr s] makes a flush-time snapshot durable: the
    snapshot bytes (not the current working bytes) are what the flush
    wrote back. {!Pstate} calls this when a fence drains the write-pending
    queue. *)
let persist_string t ~addr s =
  let off = addr - Layout.pm_base in
  let len = String.length s in
  if off < 0 || off + len > Bytes.length t.pm_persisted then
    trap "persist_string outside PM at 0x%x" addr;
  match t.track with
  | Some tr ->
      persist_tracked tr t.pm_persisted ~off ~len ~byte_at:(fun k ->
          Char.code (String.unsafe_get s (k - off)))
  | None -> Bytes.blit_string s 0 t.pm_persisted off len

(** Snapshot of the durable image: the post-crash PM contents. *)
let crash_image t = Bytes.copy t.pm_persisted

(** Snapshot of the working image (i.e. assuming everything reached PM). *)
let working_image t = Bytes.copy t.pm

(* Image tracking ---------------------------------------------------------- *)

let tracker t =
  match t.track with
  | Some tr -> tr
  | None -> trap "image tracking is off (create with ~track_images:true)"

(** Live fingerprint of the working image. Requires tracking. *)
let working_digest t = Imghash.digest (tracker t).work_hash

(** Live fingerprint of the durable image. Requires tracking. *)
let durable_digest t = Imghash.digest (tracker t).dur_hash

(** A compact captured image: the touched prefix plus a shared reference
    to the creation-time image for the untouched tail. Copying costs
    O(touched bytes), not O(pm size). *)
type pm_snapshot = { s_prefix : Bytes.t; s_base : Bytes.t }

let snapshot_durable t =
  let tr = tracker t in
  { s_prefix = Bytes.sub t.pm_persisted 0 tr.hi; s_base = tr.pm_initial }

let snapshot_working t =
  let tr = tracker t in
  { s_prefix = Bytes.sub t.pm 0 tr.hi; s_base = tr.pm_initial }

(** Materialize a snapshot as a full PM image (for {!create}'s
    [?pm_image]). *)
let snapshot_to_image s =
  let img = Bytes.copy s.s_base in
  Bytes.blit s.s_prefix 0 img 0 (Bytes.length s.s_prefix);
  img

(* Allocators ------------------------------------------------------------- *)

let alloc_vol t size =
  let size = align8 (max size 1) in
  if t.vol_brk + size > Bytes.length t.vol then trap "volatile heap exhausted";
  let addr = Layout.vol_base + t.vol_brk in
  t.vol_brk <- t.vol_brk + size;
  addr

(** PM allocations are cache-line aligned, as PMDK's allocator guarantees;
    this keeps distinct objects from sharing flush granules. *)
let alloc_pm t size =
  let size = (max size 1 + 63) land lnot 63 in
  if t.pm_brk + size > Bytes.length t.pm then trap "persistent heap exhausted";
  let addr = Layout.pm_base + t.pm_brk in
  t.pm_brk <- t.pm_brk + size;
  addr

let stack_mark t = t.stack_brk

let stack_release t mark = t.stack_brk <- mark

let alloc_stack t size =
  let size = align8 (max size 1) in
  if t.stack_brk + size > Bytes.length t.stack then trap "stack overflow";
  let addr = Layout.stack_base + t.stack_brk in
  t.stack_brk <- t.stack_brk + size;
  addr

(* Host-side convenience accessors ---------------------------------------- *)

let write_string t ~addr s =
  String.iteri (fun i c -> store t ~addr:(addr + i) ~size:1 (Char.code c)) s

let read_string t ~addr ~len =
  String.init len (fun i -> Char.chr (load t ~addr:(addr + i) ~size:1 land 0xFF))
