(** Byte-addressable simulated memory.

    The working PM image is what loads observe; the persisted image is
    what survives a crash. Stores touch only the working image; the
    persistency state machine ({!Pstate}) copies ranges into the persisted
    image when they become durable (flush + fence, or [clflush]).

    PMIR is a 63-bit machine (OCaml ints): 8-byte stores mask the sign
    extension so byte 7 round-trips through byte-wise loads.

    With [~track_images:true] the memory additionally maintains, at
    O(bytes changed) per operation, a live {!Imghash} fingerprint of both
    images plus a touched-bytes watermark — the machinery behind the
    single-pass crash sweep's image capture and dedup ({!Crashsim}). *)

exception Trap of string
(** Raised on invalid accesses (out of bounds, null page, wild pointers,
    bad sizes) and resource exhaustion. *)

val trap : ('a, Format.formatter, unit, 'b) format4 -> 'a

type tracker

type t = {
  vol : Bytes.t;
  stack : Bytes.t;
  globals : Bytes.t;
  pm : Bytes.t;  (** working image: the CPU-cache view of PM *)
  pm_persisted : Bytes.t;  (** durable image: what a crash preserves *)
  mutable vol_brk : int;
  mutable stack_brk : int;
  mutable pm_brk : int;
  global_addrs : (string * int) list;
  track : tracker option;
}

(** [create globals] builds a fresh memory; [?pm_image] seeds both PM
    images (a restart from a previous durable image); [?pm_brk] restores
    the PM allocator's high-water mark alongside the image — a real PM
    allocator persists its heap metadata, so a restarted program must
    not re-issue addresses that are already in use (default 0: a fresh
    pool); [?track_images] (default false) turns on image fingerprinting
    and snapshots. *)
val create :
  ?vol_size:int ->
  ?stack_size:int ->
  ?global_size:int ->
  ?pm_size:int ->
  ?pm_image:Bytes.t ->
  ?pm_brk:int ->
  ?track_images:bool ->
  (string * int) list ->
  t

val global_addr : t -> string -> int

(** Little-endian load/store of 1, 2, 4 or 8 bytes. *)
val load : t -> addr:int -> size:int -> int

val store : t -> addr:int -> size:int -> int -> unit

(** [persist_range t ~addr ~size] copies working PM content into the
    persisted image (called by {!Pstate} when a range becomes durable). *)
val persist_range : t -> addr:int -> size:int -> unit

(** [persist_string t ~addr s] makes a flush-time snapshot durable — the
    snapshot bytes, not the current working bytes, are what the flush
    wrote back ({!Pstate}'s write-pending-queue drain). *)
val persist_string : t -> addr:int -> string -> unit

(** Snapshot of the durable image: the post-crash PM contents. *)
val crash_image : t -> Bytes.t

(** Snapshot of the working image (as if everything had reached PM). *)
val working_image : t -> Bytes.t

(** Live fingerprint of the working image, maintained incrementally. The
    digest and snapshot functions below trap unless the memory was created
    with [~track_images:true]. *)
val working_digest : t -> Imghash.digest

(** Live fingerprint of the durable image, maintained incrementally. *)
val durable_digest : t -> Imghash.digest

type pm_snapshot
(** A compact captured image: the touched-bytes prefix plus a shared
    reference to the creation-time image. O(touched bytes) to take. *)

val snapshot_durable : t -> pm_snapshot
val snapshot_working : t -> pm_snapshot

(** Materialize a snapshot as a full PM image, suitable for
    [create ?pm_image]. *)
val snapshot_to_image : pm_snapshot -> Bytes.t

val alloc_vol : t -> int -> int

(** PM allocations are cache-line aligned, as PMDK's allocator guarantees;
    distinct objects never share flush granules. *)
val alloc_pm : t -> int -> int

(** Per-call-frame stack discipline for [alloca]. *)
val stack_mark : t -> int

val stack_release : t -> int -> unit
val alloc_stack : t -> int -> int

(** Host-side convenience accessors (the "client" writing wire buffers). *)
val write_string : t -> addr:int -> string -> unit

val read_string : t -> addr:int -> len:int -> string
