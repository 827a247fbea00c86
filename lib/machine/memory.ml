type perm = Read_only | Read_write

type fault =
  | Out_of_bounds of { addr : int; size : int; op : string }
  | Write_protected of { addr : int }
  | Null_dereference
  | Stack_overflow of { sp : int; need : int }
  | Misc of string

exception Fault of fault

let pp_fault fmt = function
  | Out_of_bounds { addr; size; op } ->
      Format.fprintf fmt "out-of-bounds %s of %d byte(s) at 0x%x" op size addr
  | Write_protected { addr } ->
      Format.fprintf fmt "write to read-only memory at 0x%x" addr
  | Null_dereference -> Format.pp_print_string fmt "null dereference"
  | Stack_overflow { sp; need } ->
      Format.fprintf fmt "stack overflow: sp=0x%x, need %d more bytes" sp need
  | Misc m -> Format.pp_print_string fmt m

let fault_to_string f = Format.asprintf "%a" pp_fault f

let page_size = 4096

type segment = {
  name : string;
  base : int;
  size : int;
  perm : perm;
  touched : Bytes.t;
}

(* A segment is a virtual extent [base, base + size) of which only the
   materialized window [lo, lo + Bytes.length bytes) is backed by bytes;
   everything else in the extent is zero that nobody has looked at yet.
   The window starts empty and grows on demand (see [materialize]), so a
   fresh state costs what its program touches, not its address space. *)
type seg = {
  name : string;
  base : int;
  size : int;
  perm : perm;
  touched : Bytes.t;
  mutable lo : int;
  mutable bytes : Bytes.t;
}

type t = {
  segs : seg array;  (* sorted by base; disjoint *)
  mutable last : int;  (* index of the last segment hit, for locality *)
  mutable on_access : (unit -> unit) option;
      (* fault-injection hook, fired before every checked access *)
}

let create specs =
  let segs =
    List.map
      (fun (name, base, size, perm) ->
        if base <= 0 || size <= 0 then
          invalid_arg "Machine.Memory.create: segments must have positive base and size";
        {
          name;
          base;
          size;
          perm;
          touched = Bytes.make (((size + page_size - 1) / page_size)) '\000';
          lo = base;
          bytes = Bytes.empty;
        })
      specs
    |> List.sort (fun a b -> compare a.base b.base)
    |> Array.of_list
  in
  Array.iteri
    (fun i s ->
      if i > 0 then begin
        let prev = segs.(i - 1) in
        if prev.base + prev.size > s.base then
          invalid_arg
            (Printf.sprintf "Machine.Memory.create: segments %s and %s overlap"
               prev.name s.name)
      end)
    segs;
  { segs; last = 0; on_access = None }

let segment t name =
  match Array.find_opt (fun (s : seg) -> String.equal s.name name) t.segs with
  | Some s ->
      { name = s.name; base = s.base; size = s.size; perm = s.perm; touched = s.touched }
  | None -> invalid_arg (Printf.sprintf "Machine.Memory.segment: no segment %s" name)

let find t addr =
  Array.find_opt (fun s -> addr >= s.base && addr < s.base + s.size) t.segs

(* Grow [s]'s window to cover the pages of [addr, addr + size), an access
   inside the extent: page-aligned, clamped to the extent, and at least
   doubled in the direction of the access (downward when it lies below
   the window, as the stack grows; upward otherwise, as the heap does).
   Old bytes are blitted across, new bytes are zero.  An access that is
   "inside" only because [addr + size] overflowed covers no page and
   leaves the window alone; the byte operation it reaches then raises
   [Invalid_argument], as it did on an eagerly allocated segment. *)
let materialize s addr size =
  let mask = lnot (page_size - 1) in
  let len = Bytes.length s.bytes in
  let wlo = s.lo - s.base in
  let whi = wlo + len in
  let need_lo = Int.max 0 ((addr - s.base) land mask)
  and need_hi = Int.min s.size ((addr + size - s.base + page_size - 1) land mask) in
  if need_lo < need_hi && (need_lo < wlo || need_hi > whi) then begin
    let lo, hi =
      if len = 0 then (need_lo, need_hi) else (Int.min need_lo wlo, Int.max need_hi whi)
    in
    let lo, hi =
      if hi - lo >= 2 * len then (lo, hi)
      else if lo < wlo then (Int.max 0 (hi - (2 * len)), hi)
      else (lo, Int.min s.size (lo + (2 * len)))
    in
    let bytes = Bytes.make (hi - lo) '\000' in
    if len > 0 then Bytes.blit s.bytes 0 bytes (wlo - lo) len;
    s.lo <- s.base + lo;
    s.bytes <- bytes
  end

(* Hot path for every load/store: no closures, no [option] allocation,
   and a one-element cache of the last segment hit (accesses cluster on
   the stack or one data segment, so the cache almost always hits and
   skips the linear scan).  The cache test is against the window, so a
   hit needs no materialization; growth happens only in the scan, which
   runs on every switch between segments and so tests the window before
   calling out. *)
let locate t ~op addr size =
  (match t.on_access with Some f -> f () | None -> ());
  if addr = 0 then raise (Fault Null_dereference);
  let segs = t.segs in
  let s = Array.unsafe_get segs t.last in
  if addr >= s.lo && addr + size <= s.lo + Bytes.length s.bytes then s
  else begin
    let n = Array.length segs in
    let rec scan i =
      if i >= n then raise (Fault (Out_of_bounds { addr; size; op }))
      else
        let s = Array.unsafe_get segs i in
        (* segments are disjoint, so containment of [addr] identifies
           the unique candidate; an access that starts inside a segment
           but overruns its extent is out of bounds *)
        if addr >= s.base && addr + size <= s.base + s.size then begin
          t.last <- i;
          if addr < s.lo || addr + size > s.lo + Bytes.length s.bytes then
            materialize s addr size;
          s
        end
        else scan (i + 1)
    in
    scan 0
  end

let touch s off size =
  let first = off / page_size and last = (off + size - 1) / page_size in
  for p = first to last do
    Bytes.unsafe_set s.touched p '\001'
  done

let load t ~width addr =
  let s = locate t ~op:"load" addr width in
  touch s (addr - s.base) width;
  Sutil.Bytecodec.get s.bytes ~width (addr - s.lo)

let load_unchecked = load

let store t ~width addr v =
  let s = locate t ~op:"store" addr width in
  if s.perm = Read_only then raise (Fault (Write_protected { addr }));
  touch s (addr - s.base) width;
  Sutil.Bytecodec.set s.bytes ~width (addr - s.lo) v

let read_bytes t addr n =
  if n = 0 then ""
  else begin
    let s = locate t ~op:"read" addr n in
    touch s (addr - s.base) n;
    Bytes.sub_string s.bytes (addr - s.lo) n
  end

let write_bytes_perm ~check t addr str =
  let n = String.length str in
  if n > 0 then begin
    let s = locate t ~op:"write" addr n in
    if check && s.perm = Read_only then raise (Fault (Write_protected { addr }));
    touch s (addr - s.base) n;
    Bytes.blit_string str 0 s.bytes (addr - s.lo) n
  end

let write_bytes t addr str = write_bytes_perm ~check:true t addr str
let write_protected t addr str = write_bytes_perm ~check:false t addr str

let cstring t ?(max = 1 lsl 20) addr =
  let buf = Buffer.create 32 in
  let rec go a =
    if Buffer.length buf >= max then
      raise (Fault (Misc (Printf.sprintf "unterminated string at 0x%x" addr)))
    else
      let c = Int64.to_int (load t ~width:1 a) in
      if c <> 0 then begin
        Buffer.add_char buf (Char.chr c);
        go (a + 1)
      end
  in
  go addr;
  Buffer.contents buf

let set_access_hook t hook = t.on_access <- hook

let flip_bit t ~addr ~bit =
  if bit < 0 || bit > 7 then
    invalid_arg "Machine.Memory.flip_bit: bit must be in [0, 7]";
  match find t addr with
  | None ->
      invalid_arg
        (Printf.sprintf "Machine.Memory.flip_bit: address 0x%x is unmapped"
           addr)
  | Some s ->
      materialize s addr 1;
      let off = addr - s.lo in
      Bytes.unsafe_set s.bytes off
        (Char.chr (Char.code (Bytes.unsafe_get s.bytes off) lxor (1 lsl bit)))

let touched_bytes t =
  Array.fold_left
    (fun acc s ->
      let pages = ref 0 in
      Bytes.iter (fun c -> if c <> '\000' then incr pages) s.touched;
      acc + (!pages * page_size))
    0 t.segs
