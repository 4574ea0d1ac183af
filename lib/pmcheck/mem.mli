(** Byte-addressable simulated memory.

    The working PM image is what loads observe; the persisted image is
    what survives a crash. Stores touch only the working image; the
    persistency state machine ({!Pstate}) copies ranges into the persisted
    image when they become durable (flush + fence, or [clflush]).

    PMIR is a 63-bit machine (OCaml ints): 8-byte stores mask the sign
    extension so byte 7 round-trips through byte-wise loads.

    Regions keep their logical sizes and addresses, but each is backed
    only by the prefix touched so far; bytes past it read as zero. A
    fresh memory therefore costs nothing per byte of address space, and
    a PM image ({!crash_image}, {!working_image}, [create]'s
    [?pm_image]) is a prefix of the full image, implicitly zero-extended
    to the PM size: compare images with {!image_equal}, never with
    [Bytes.equal].

    With [~track_images:true] the memory additionally maintains, at
    O(bytes changed) per operation, a live {!Imghash} fingerprint of both
    images — the single-pass crash sweep's deduplication key
    ({!Crashsim}). *)

exception Trap of string
(** Raised on invalid accesses (out of bounds, null page, wild pointers,
    bad sizes) and resource exhaustion. *)

val trap : ('a, Format.formatter, unit, 'b) format4 -> 'a

type t

(** [create ~vol_size ~stack_size ~global_size ~pm_size globals] builds a
    fresh memory with regions of those byte sizes (the defaults live in
    {!Interp.default_config}); [?pm_image] (a prefix image, at most
    [pm_size] bytes) seeds both PM images (a restart from a previous
    durable image); [?pm_brk] restores the PM allocator's high-water
    mark alongside the image — a real PM allocator persists its heap
    metadata, so a restarted program must not re-issue addresses that
    are already in use (default 0: a fresh pool); [?track_images]
    (default false) turns on image fingerprinting. *)
val create :
  vol_size:int ->
  stack_size:int ->
  global_size:int ->
  pm_size:int ->
  ?pm_image:Bytes.t ->
  ?pm_brk:int ->
  ?track_images:bool ->
  (string * int) list ->
  t

val global_addr : t -> string -> int

(** The PM allocator's high-water mark (persisted with an image, see
    [create]'s [?pm_brk]). *)
val pm_brk : t -> int

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

(** Snapshot of the durable image: the post-crash PM contents, as a
    prefix. O(touched bytes). *)
val crash_image : t -> Bytes.t

(** Snapshot of the working image (as if everything had reached PM), as a
    prefix. O(touched bytes). *)
val working_image : t -> Bytes.t

(** Equality of two images, each zero-extended to the longer one. *)
val image_equal : Bytes.t -> Bytes.t -> bool

(** [image_md5 t img] is the MD5 of [img] zero-extended to [t]'s PM size:
    the digest of the full-length image the prefix stands for. Hashes
    through one reused full-size scratch buffer per domain. *)
val image_md5 : t -> Bytes.t -> Digest.t

(** Live fingerprint of the working image, maintained incrementally. The
    digest functions trap unless the memory was created with
    [~track_images:true]. *)
val working_digest : t -> Imghash.digest

(** Live fingerprint of the durable image, maintained incrementally. *)
val durable_digest : t -> Imghash.digest

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
