(** Versioned, checksummed binary snapshots of {!Compact} networks.

    The on-disk format ([.tinb]) is a fixed-width little-endian layout:
    a 32-byte header (magic ["TINB"], [u32] version, [u32] flags,
    [u32] reserved, [u64] vertex and interaction counts) followed by
    five columns — labels as [i64], then the global interaction table
    ([src]/[dst] as [u32] compact ids, [time]/[qty] as IEEE-754 [f64])
    in scan order — and a trailing [u32] CRC32 over everything before
    it.  The f64 columns fall on 8-byte boundaries, so the file is
    mmap-friendly for external tooling.  See DESIGN.md, "Binary
    snapshot format".

    Loading re-validates every structural invariant (magic, version,
    size, checksum, id ranges, label monotonicity, NaN/negativity,
    global sort), mirroring the CSV loader's strictness.  A failure is
    a plain message; {!Io}, the one way a network file is read, adds
    the file context and reports it through {!Io.error}. *)

val version : int
(** Current format version (1).  Files with any other version are
    rejected with a clean [Error]. *)

val save : string -> Compact.t -> unit
(** [save path c] writes the snapshot atomically enough for build
    tooling (single [write] of a fully checksummed buffer).
    @raise Sys_error on I/O failure. *)

val load_result : string -> (Compact.t, string) result
(** Strict load; never raises on malformed input (I/O errors and all
    corruption cases become [Error] with the reason). *)

val sniff : string -> bool
(** [sniff path] is [true] iff the file starts with the snapshot
    magic — the auto-detection test used by {!Io}'s format-agnostic
    loaders.  [false] on unreadable or short files. *)
