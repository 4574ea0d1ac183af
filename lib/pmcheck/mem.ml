(** Byte-addressable simulated memory.

    The working PM image is what loads observe; the persisted image is what
    survives a crash. Stores touch only the working image; the persistency
    state machine ({!Pstate}) copies ranges into the persisted image when
    they become durable (flush + fence, or [clflush]).

    Each region keeps its logical size and addresses but is backed only by
    the prefix touched so far: a buffer that grows by doubling (from 4 KiB,
    capped at the logical size) on the first store past its end. Bytes past
    the buffer read as zero, so a fresh machine costs nothing per byte of
    address space and a PM image is just a copy of the buffer — a prefix,
    implicitly zero-extended to the PM size.

    With [~track_images:true] the memory additionally maintains, at O(bytes
    changed) per operation, a live {!Imghash} fingerprint of both images —
    the single-pass crash sweep's deduplication key ({!Crashsim}). *)

exception Trap of string

let trap fmt = Fmt.kstr (fun m -> raise (Trap m)) fmt

(** Image-capture state, allocated only when tracking is on. *)
type tracker = {
  work_hash : Imghash.t;
  dur_hash : Imghash.t;
  old_buf : int array;  (** scratch for a store's pre-image (<= 8 bytes) *)
}

(* A region: [buf] holds the touched prefix of [size] logical bytes
   starting at address [base]. *)
type region = { mutable buf : Bytes.t; size : int; base : int }

type t = {
  vol : region;
  stack : region;
  globals : region;
  pm : region;  (** working image: CPU-cache view of PM *)
  mutable pm_persisted : Bytes.t;
      (** durable image: what a crash preserves; always as long as
          [pm.buf], so a working offset indexes both *)
  mutable vol_brk : int;
  mutable stack_brk : int;
  mutable pm_brk : int;
  global_addrs : (string * int) list;
  track : tracker option;
}

let align8 n = (n + 7) land lnot 7

let empty_region ~base size = { buf = Bytes.empty; size; base }

let create ~vol_size ~stack_size ~global_size ~pm_size ?pm_image ?(pm_brk = 0)
    ?(track_images = false) (globals : (string * int) list) =
  let pm_buf =
    match pm_image with
    | Some img ->
        if Bytes.length img > pm_size then
          invalid_arg "Mem.create: pm_image larger than PM";
        Bytes.copy img
    | None -> Bytes.empty
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
      let h = Imghash.of_bytes pm_buf in
      Some
        { work_hash = h; dur_hash = Imghash.copy h; old_buf = Array.make 8 0 }
  in
  {
    vol = empty_region ~base:Layout.vol_base vol_size;
    stack = empty_region ~base:Layout.stack_base stack_size;
    globals = empty_region ~base:Layout.global_base global_size;
    pm = { buf = pm_buf; size = pm_size; base = Layout.pm_base };
    pm_persisted = Bytes.copy pm_buf;
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

let pm_brk t = t.pm_brk

(* Growth ----------------------------------------------------------------- *)

let extend buf cap =
  let b = Bytes.make cap '\000' in
  Bytes.blit buf 0 b 0 (Bytes.length buf);
  b

(* Grow [r]'s buffer to cover its first [need] bytes ([need <= r.size]);
   the PM images grow together. *)
let ensure t r need =
  let cap = Bytes.length r.buf in
  if need > cap then begin
    let rec double c = if c >= need then c else double (2 * c) in
    let cap = min r.size (double (max 4096 (2 * cap))) in
    r.buf <- extend r.buf cap;
    if r == t.pm then t.pm_persisted <- extend t.pm_persisted cap
  end

(* Region resolution ------------------------------------------------------ *)

let region_of t addr =
  match Layout.region_of_addr addr with
  | Layout.Vol_heap -> t.vol
  | Layout.Stack -> t.stack
  | Layout.Globals -> t.globals
  | Layout.Pm -> t.pm
  | Layout.Null_page -> trap "null-page access at 0x%x" addr
  | Layout.Wild -> trap "wild access at 0x%x" addr

(* Every region starts at its base, so [off >= 0] by construction; the
   hot paths compare only against the buffer's end, and everything past
   it takes the slow path, which traps against the logical size. *)
let check_bounds r ~addr ~off ~size =
  if off + size > r.size then
    trap "out-of-bounds access at 0x%x (size %d)" addr size

let read_value buf off size =
  match size with
  | 1 -> Bytes.get_uint8 buf off
  | 2 -> Bytes.get_uint16_le buf off
  | 4 -> Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le buf off)
  | _ -> trap "bad load size %d" size

(* A load reaching past the buffer: bytes beyond it read as zero, and
   nothing grows. *)
let[@inline never] load_slow r ~addr ~off ~size =
  check_bounds r ~addr ~off ~size;
  let word = Bytes.make 8 '\000' in
  let avail = min (min size 8) (Bytes.length r.buf - off) in
  if avail > 0 then Bytes.blit r.buf off word 0 avail;
  read_value word 0 size

let load t ~addr ~size =
  let r = region_of t addr in
  let off = addr - r.base in
  if off + size > Bytes.length r.buf then load_slow r ~addr ~off ~size
  else read_value r.buf off size

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

let[@inline never] store_slow t r ~addr ~off ~size =
  check_bounds r ~addr ~off ~size;
  ensure t r (off + size)

let store t ~addr ~size v =
  let r = region_of t addr in
  let off = addr - r.base in
  if off + size > Bytes.length r.buf then store_slow t r ~addr ~off ~size;
  let buf = r.buf in
  match t.track with
  | Some tr when r == t.pm ->
      for k = 0 to size - 1 do
        tr.old_buf.(k) <- Bytes.get_uint8 buf (off + k)
      done;
      write_value buf off size v;
      for k = 0 to size - 1 do
        Imghash.update tr.work_hash ~off:(off + k) ~old_byte:tr.old_buf.(k)
          ~new_byte:(Bytes.get_uint8 buf (off + k))
      done
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
  done

(** [persist_range t ~addr ~size] copies working PM content into the
    persisted image (called by {!Pstate} when a range becomes durable). *)
let persist_range t ~addr ~size =
  let off = addr - Layout.pm_base in
  if off < 0 || off + size > t.pm.size then
    trap "persist_range outside PM at 0x%x" addr;
  ensure t t.pm (off + size);
  match t.track with
  | Some tr ->
      let src = t.pm.buf in
      persist_tracked tr t.pm_persisted ~off ~len:size ~byte_at:(fun k ->
          Bytes.get_uint8 src k)
  | None -> Bytes.blit t.pm.buf off t.pm_persisted off size

(** [persist_string t ~addr s] makes a flush-time snapshot durable: the
    snapshot bytes (not the current working bytes) are what the flush
    wrote back. {!Pstate} calls this when a fence drains the write-pending
    queue. *)
let persist_string t ~addr s =
  let off = addr - Layout.pm_base in
  let len = String.length s in
  if off < 0 || off + len > t.pm.size then
    trap "persist_string outside PM at 0x%x" addr;
  ensure t t.pm (off + len);
  match t.track with
  | Some tr ->
      persist_tracked tr t.pm_persisted ~off ~len ~byte_at:(fun k ->
          Char.code (String.unsafe_get s (k - off)))
  | None -> Bytes.blit_string s 0 t.pm_persisted off len

(* Images ----------------------------------------------------------------- *)

(** Snapshot of the durable image: the post-crash PM contents. *)
let crash_image t = Bytes.copy t.pm_persisted

(** Snapshot of the working image (i.e. assuming everything reached PM). *)
let working_image t = Bytes.copy t.pm.buf

(** Equality of two images, each zero-extended to the longer one. *)
let image_equal a b =
  let n = max (Bytes.length a) (Bytes.length b) in
  let byte s k = if k < Bytes.length s then Bytes.get s k else '\000' in
  let rec from k = k >= n || (byte a k = byte b k && from (k + 1)) in
  from 0

(* One full-size scratch image per domain for {!image_md5}; [dirty] bytes
   of it may be nonzero. *)
type scratch = { mutable img : Bytes.t; mutable dirty : int }

let scratch_key =
  Domain.DLS.new_key (fun () -> { img = Bytes.empty; dirty = 0 })

(** MD5 of [img] zero-extended to [t]'s PM size: the digest of the full
    image the prefix stands for. *)
let image_md5 t img =
  let s = Domain.DLS.get scratch_key in
  let size = t.pm.size and n = Bytes.length img in
  if n > size then invalid_arg "Mem.image_md5: image larger than PM";
  if Bytes.length s.img < size then begin
    s.img <- Bytes.make size '\000';
    s.dirty <- 0
  end;
  Bytes.blit img 0 s.img 0 n;
  if s.dirty > n then Bytes.fill s.img n (s.dirty - n) '\000';
  s.dirty <- n;
  Digest.subbytes s.img 0 size

(* Image tracking ---------------------------------------------------------- *)

let tracker t =
  match t.track with
  | Some tr -> tr
  | None -> trap "image tracking is off (create with ~track_images:true)"

(** Live fingerprint of the working image. Requires tracking. *)
let working_digest t = Imghash.digest (tracker t).work_hash

(** Live fingerprint of the durable image. Requires tracking. *)
let durable_digest t = Imghash.digest (tracker t).dur_hash

(* Allocators ------------------------------------------------------------- *)

let alloc_vol t size =
  let size = align8 (max size 1) in
  if t.vol_brk + size > t.vol.size then trap "volatile heap exhausted";
  let addr = Layout.vol_base + t.vol_brk in
  t.vol_brk <- t.vol_brk + size;
  addr

(** PM allocations are cache-line aligned, as PMDK's allocator guarantees;
    this keeps distinct objects from sharing flush granules. *)
let alloc_pm t size =
  let size = (max size 1 + 63) land lnot 63 in
  if t.pm_brk + size > t.pm.size then trap "persistent heap exhausted";
  let addr = Layout.pm_base + t.pm_brk in
  t.pm_brk <- t.pm_brk + size;
  addr

let stack_mark t = t.stack_brk

let stack_release t mark = t.stack_brk <- mark

let alloc_stack t size =
  let size = align8 (max size 1) in
  if t.stack_brk + size > t.stack.size then trap "stack overflow";
  let addr = Layout.stack_base + t.stack_brk in
  t.stack_brk <- t.stack_brk + size;
  addr

(* Host-side convenience accessors ---------------------------------------- *)

let write_string t ~addr s =
  String.iteri (fun i c -> store t ~addr:(addr + i) ~size:1 (Char.code c)) s

let read_string t ~addr ~len =
  String.init len (fun i -> Char.chr (load t ~addr:(addr + i) ~size:1 land 0xFF))
