(* Versioned binary snapshot of a Compact network.

   Layout (all integers little-endian, fixed width; offsets in bytes):

     0   magic "TINB" (4 bytes)
     4   u32 version (currently 1)
     8   u32 flags (0; reserved)
     12  u32 reserved (0)
     16  u64 n_vertices
     24  u64 n_interactions
     32  labels   : i64[n_vertices]      (compact id -> raw label)
     ..  src      : u32[n_interactions]  (compact ids, scan order)
     ..  dst      : u32[n_interactions]
     ..  time     : f64[n_interactions]  (IEEE-754 bits)
     ..  qty      : f64[n_interactions]
     end u32 CRC32 (IEEE, reflected 0xEDB88320) over all preceding bytes

   The header is 32 bytes and every f64 column lands on an 8-byte
   boundary (32 + 8n, then + 4m + 4m), so the file can be mapped and
   read in place by other tooling.  Columns are stored in the global
   scan order (time, qty, src, dst); the loader re-validates that
   invariant rather than trusting it. *)

let magic = "TINB"
let version = 1
let header_bytes = 32

(* --- CRC32 (IEEE), slicing-by-8 ------------------------------------

   The checksum runs over the whole file on every load, so the classic
   byte-at-a-time loop (~4 ns/byte) would be a fixed tax rivalling the
   column parse.  Slicing-by-8 consumes 8 bytes per step through eight
   precomputed tables: tables.(i) maps a byte to its CRC contribution
   i+1 positions before the end of the block. *)

let crc_tables =
  lazy
    (let t0 =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c)
     in
     let tabs = Array.init 8 (fun _ -> Array.make 256 0) in
     Array.blit t0 0 tabs.(0) 0 256;
     for i = 1 to 7 do
       for j = 0 to 255 do
         let c = tabs.(i - 1).(j) in
         tabs.(i).(j) <- t0.(c land 0xFF) lxor (c lsr 8)
       done
     done;
     tabs)

let crc32 buf ~pos ~len =
  let tabs = Lazy.force crc_tables in
  let t0 = tabs.(0)
  and t1 = tabs.(1)
  and t2 = tabs.(2)
  and t3 = tabs.(3)
  and t4 = tabs.(4)
  and t5 = tabs.(5)
  and t6 = tabs.(6)
  and t7 = tabs.(7) in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = Int32.to_int (Bytes.get_int32_le buf !i) land 0xFFFFFFFF in
    let hi = Int32.to_int (Bytes.get_int32_le buf (!i + 4)) land 0xFFFFFFFF in
    let x = !c lxor lo in
    c :=
      t7.(x land 0xFF)
      lxor t6.((x lsr 8) land 0xFF)
      lxor t5.((x lsr 16) land 0xFF)
      lxor t4.((x lsr 24) land 0xFF)
      lxor t3.(hi land 0xFF)
      lxor t2.((hi lsr 8) land 0xFF)
      lxor t1.((hi lsr 16) land 0xFF)
      lxor t0.((hi lsr 24) land 0xFF);
    i := !i + 8
  done;
  while !i < pos + len do
    c := t0.((!c lxor Char.code (Bytes.unsafe_get buf !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

(* --- save ---------------------------------------------------------- *)

let payload_bytes ~n ~m = (8 * n) + (24 * m)

let save path c =
  let cols = Compact.columns c in
  let n = Array.length cols.Compact.c_labels in
  let m = Array.length cols.Compact.c_src in
  let total = header_bytes + payload_bytes ~n ~m + 4 in
  let buf = Bytes.create total in
  Bytes.blit_string magic 0 buf 0 4;
  Bytes.set_int32_le buf 4 (Int32.of_int version);
  Bytes.set_int32_le buf 8 0l;
  Bytes.set_int32_le buf 12 0l;
  Bytes.set_int64_le buf 16 (Int64.of_int n);
  Bytes.set_int64_le buf 24 (Int64.of_int m);
  let off = ref header_bytes in
  Array.iter
    (fun l ->
      Bytes.set_int64_le buf !off (Int64.of_int l);
      off := !off + 8)
    cols.Compact.c_labels;
  Array.iter
    (fun v ->
      Bytes.set_int32_le buf !off (Int32.of_int v);
      off := !off + 4)
    cols.Compact.c_src;
  Array.iter
    (fun v ->
      Bytes.set_int32_le buf !off (Int32.of_int v);
      off := !off + 4)
    cols.Compact.c_dst;
  Float.Array.iter
    (fun x ->
      Bytes.set_int64_le buf !off (Int64.bits_of_float x);
      off := !off + 8)
    cols.Compact.c_time;
  Float.Array.iter
    (fun x ->
      Bytes.set_int64_le buf !off (Int64.bits_of_float x);
      off := !off + 8)
    cols.Compact.c_qty;
  assert (!off = total - 4);
  Bytes.set_int32_le buf !off (Int32.of_int (crc32 buf ~pos:0 ~len:(total - 4)));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc buf)

(* --- load ---------------------------------------------------------- *)

let u32_at buf off = Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF

let load_result path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | raw ->
      (* Read-only from here on: the unsafe cast never mutates. *)
      let buf = Bytes.unsafe_of_string raw in
      let len = Bytes.length buf in
      if len < 4 || Bytes.sub_string buf 0 4 <> magic then
        Error "bad magic (not a .tinb snapshot)"
      else if len < header_bytes + 4 then
        Error
          (Printf.sprintf "truncated header (%d bytes, need at least %d)" len (header_bytes + 4))
      else begin
        let v = u32_at buf 4 in
        if v <> version then
          Error (Printf.sprintf "unsupported snapshot version %d (expected %d)" v version)
        else begin
          let n64 = Bytes.get_int64_le buf 16 and m64 = Bytes.get_int64_le buf 24 in
          (* An honest snapshot is never larger than its file; bounding
             the counts by the length first keeps all the size
             arithmetic inside native int range. *)
          let fits x = Int64.compare x 0L >= 0 && Int64.compare x (Int64.of_int len) <= 0 in
          if not (fits n64 && fits m64) then
            Error
              (Printf.sprintf "implausible counts (n_vertices=%Ld, n_interactions=%Ld for a %d-byte file)"
                 n64 m64 len)
          else begin
            let n = Int64.to_int n64 and m = Int64.to_int m64 in
            let expected = header_bytes + payload_bytes ~n ~m + 4 in
            if len <> expected then
              Error (Printf.sprintf "truncated snapshot: expected %d bytes, got %d" expected len)
            else begin
              let stored = u32_at buf (len - 4) in
              let computed = crc32 buf ~pos:0 ~len:(len - 4) in
              if stored <> computed then
                Error
                  (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)" stored computed)
              else begin
                let labels = Array.make n 0 in
                for v = 0 to n - 1 do
                  labels.(v) <- Int64.to_int (Bytes.get_int64_le buf (header_bytes + (8 * v)))
                done;
                let src_base = header_bytes + (8 * n) in
                let dst_base = src_base + (4 * m) in
                let time_base = dst_base + (4 * m) in
                let qty_base = time_base + (8 * m) in
                let src = Array.make m 0 and dst = Array.make m 0 in
                let time = Float.Array.create m and qty = Float.Array.create m in
                for k = 0 to m - 1 do
                  src.(k) <- u32_at buf (src_base + (4 * k));
                  dst.(k) <- u32_at buf (dst_base + (4 * k));
                  Float.Array.set time k
                    (Int64.float_of_bits (Bytes.get_int64_le buf (time_base + (8 * k))));
                  Float.Array.set qty k
                    (Int64.float_of_bits (Bytes.get_int64_le buf (qty_base + (8 * k))))
                done;
                Compact.of_columns
                  {
                    Compact.c_labels = labels;
                    c_src = src;
                    c_dst = dst;
                    c_time = time;
                    c_qty = qty;
                  }
              end
            end
          end
        end
      end

let sniff path =
  match
    In_channel.with_open_bin path (fun ic ->
        match In_channel.really_input_string ic 4 with
        | Some head -> head = magic
        | None -> false)
  with
  | ok -> ok
  | exception Sys_error _ -> false
