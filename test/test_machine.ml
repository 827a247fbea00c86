(* Tests for the segmented memory and the interpreter. *)

let compile = Minic.Driver.compile

let run_prog ?(input = "") ?fuel prog =
  let st = Machine.Exec.prepare prog in
  Machine.Exec.set_input st (Machine.Exec.input_string input);
  Machine.Exec.run ?fuel st

(* ------------------------------------------------------------------ *)
(* Memory *)

let mk_mem () =
  Machine.Memory.create
    [
      ("ro", 0x1000, 4096, Machine.Memory.Read_only);
      ("rw", 0x10000, 4096, Machine.Memory.Read_write);
    ]

let test_memory_rw_roundtrip () =
  let m = mk_mem () in
  Machine.Memory.store m ~width:8 0x10010 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L
    (Machine.Memory.load m ~width:8 0x10010);
  Alcotest.(check int64) "little-endian low u16" 0x7788L
    (Machine.Memory.load m ~width:2 0x10010)

let test_memory_write_protection () =
  let m = mk_mem () in
  Machine.Memory.write_protected m 0x1000 "secret";
  Alcotest.(check string) "readable" "secret" (Machine.Memory.read_bytes m 0x1000 6);
  (match Machine.Memory.store m ~width:1 0x1000 0L with
  | () -> Alcotest.fail "expected write-protection fault"
  | exception Machine.Memory.Fault (Machine.Memory.Write_protected _) -> ())

let test_memory_oob_and_null () =
  let m = mk_mem () in
  (match Machine.Memory.load m ~width:8 0x999999 with
  | _ -> Alcotest.fail "expected OOB fault"
  | exception Machine.Memory.Fault (Machine.Memory.Out_of_bounds _) -> ());
  (match Machine.Memory.load m ~width:1 0 with
  | _ -> Alcotest.fail "expected null fault"
  | exception Machine.Memory.Fault Machine.Memory.Null_dereference -> ());
  (* straddling the segment end *)
  match Machine.Memory.load m ~width:8 (0x1000 + 4092) with
  | _ -> Alcotest.fail "expected straddle fault"
  | exception Machine.Memory.Fault (Machine.Memory.Out_of_bounds _) -> ()

let test_memory_overlap_rejected () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Machine.Memory.create: segments a and b overlap")
    (fun () ->
      ignore
        (Machine.Memory.create
           [
             ("a", 0x1000, 4096, Machine.Memory.Read_write);
             ("b", 0x1800, 4096, Machine.Memory.Read_write);
           ]))

let test_touched_pages () =
  let m = mk_mem () in
  let before = Machine.Memory.touched_bytes m in
  Machine.Memory.store m ~width:1 0x10000 1L;
  Machine.Memory.store m ~width:1 0x10001 1L;
  let after_one_page = Machine.Memory.touched_bytes m in
  Alcotest.(check int) "one page" Machine.Memory.page_size
    (after_one_page - before);
  Machine.Memory.store m ~width:1 (0x10000 + 4096 - 1) 1L;
  Alcotest.(check int) "same segment page boundary" after_one_page
    (Machine.Memory.touched_bytes m)

let test_cstring () =
  let m = mk_mem () in
  Machine.Memory.write_bytes m 0x10000 "hello\000world";
  Alcotest.(check string) "stops at NUL" "hello" (Machine.Memory.cstring m 0x10000)

(* ------------------------------------------------------------------ *)
(* Memory vs. an eager reference model *)

module M = Machine.Memory

(* Test-only reference model: the flat memory that allocated every
   segment's whole extent up front, with the same bounds, permission
   and page-accounting rules.  It raises [Machine.Memory.Fault], so the
   two implementations' outcomes compare directly. *)
module Eager = struct
  type seg = { base : int; bytes : Bytes.t; perm : M.perm; touched : Bytes.t }
  type t = { segs : seg array; mutable last : int }

  let create specs =
    let segs =
      List.map
        (fun (_, base, size, perm) ->
          {
            base;
            bytes = Bytes.make size '\000';
            perm;
            touched = Bytes.make ((size + M.page_size - 1) / M.page_size) '\000';
          })
        specs
      |> List.sort (fun a b -> compare a.base b.base)
      |> Array.of_list
    in
    { segs; last = 0 }

  let locate t ~op addr size =
    if addr = 0 then raise (M.Fault M.Null_dereference);
    let fits s = addr >= s.base && addr + size <= s.base + Bytes.length s.bytes in
    let s = t.segs.(t.last) in
    if fits s then s
    else
      let rec scan i =
        if i >= Array.length t.segs then
          raise (M.Fault (M.Out_of_bounds { addr; size; op }))
        else if fits t.segs.(i) then begin
          t.last <- i;
          t.segs.(i)
        end
        else scan (i + 1)
      in
      scan 0

  let touch s off size =
    for p = off / M.page_size to (off + size - 1) / M.page_size do
      Bytes.set s.touched p '\001'
    done

  let load t ~width addr =
    let s = locate t ~op:"load" addr width in
    touch s (addr - s.base) width;
    Sutil.Bytecodec.get s.bytes ~width (addr - s.base)

  let store t ~width addr v =
    let s = locate t ~op:"store" addr width in
    if s.perm = M.Read_only then raise (M.Fault (M.Write_protected { addr }));
    touch s (addr - s.base) width;
    Sutil.Bytecodec.set s.bytes ~width (addr - s.base) v

  let read_bytes t addr n =
    if n = 0 then ""
    else begin
      let s = locate t ~op:"read" addr n in
      touch s (addr - s.base) n;
      Bytes.sub_string s.bytes (addr - s.base) n
    end

  let write_bytes_perm ~check t addr str =
    let n = String.length str in
    if n > 0 then begin
      let s = locate t ~op:"write" addr n in
      if check && s.perm = M.Read_only then
        raise (M.Fault (M.Write_protected { addr }));
      touch s (addr - s.base) n;
      Bytes.blit_string str 0 s.bytes (addr - s.base) n
    end

  let cstring t ~max addr =
    let buf = Buffer.create 32 in
    let rec go a =
      if Buffer.length buf >= max then
        raise (M.Fault (M.Misc (Printf.sprintf "unterminated string at 0x%x" addr)))
      else
        let c = Int64.to_int (load t ~width:1 a) in
        if c <> 0 then begin
          Buffer.add_char buf (Char.chr c);
          go (a + 1)
        end
    in
    go addr;
    Buffer.contents buf

  let flip_bit t ~addr ~bit =
    match
      Array.find_opt
        (fun s -> addr >= s.base && addr < s.base + Bytes.length s.bytes)
        t.segs
    with
    | None -> invalid_arg "unmapped"
    | Some s ->
        let off = addr - s.base in
        Bytes.set s.bytes off
          (Char.chr (Char.code (Bytes.get s.bytes off) lxor (1 lsl bit)))

  let touched_bytes t =
    Array.fold_left
      (fun acc s ->
        acc
        + M.page_size
          * Seq.fold_left (fun n c -> if c <> '\000' then n + 1 else n) 0
              (Bytes.to_seq s.touched))
      0 t.segs
end

(* Extents deliberately not page multiples, one gap and one pair of
   adjacent segments (heap ends where stack begins). *)
let model_layout =
  [
    ("rodata", 0x1000, 5000, M.Read_only);
    ("data", 0x4000, (3 * 4096) + 100, M.Read_write);
    ("heap", 0x10000, 0x10000, M.Read_write);
    ("stack", 0x20000, 40000, M.Read_write);
  ]

type mem_op =
  | Load of int * int
  | Store of int * int * int64
  | Load_to of int * int
  | Store_from of int * int * int64
  | Read of int * int
  | Write of int * string
  | Write_protected of int * string
  | Cstring of int * int
  | Flip of int * int

let show_op = function
  | Load (w, a) -> Printf.sprintf "load%d 0x%x" w a
  | Store (w, a, v) -> Printf.sprintf "store%d 0x%x %Ld" w a v
  | Load_to (w, a) -> Printf.sprintf "load_to%d 0x%x" w a
  | Store_from (w, a, v) -> Printf.sprintf "store_from%d 0x%x %Ld" w a v
  | Read (a, n) -> Printf.sprintf "read 0x%x %d" a n
  | Write (a, s) -> Printf.sprintf "write 0x%x (%d bytes)" a (String.length s)
  | Write_protected (a, s) ->
      Printf.sprintf "write_protected 0x%x (%d bytes)" a (String.length s)
  | Cstring (a, max) -> Printf.sprintf "cstring 0x%x max=%d" a max
  | Flip (a, b) -> Printf.sprintf "flip 0x%x bit %d" a b

(* Addresses cluster within a few bytes of address 0, the edges of the
   segments of [layout] and page boundaries counted from either edge —
   where windows start, stop and double. *)
let gen_addr_in layout =
  let open QCheck2.Gen in
  let anchors =
    0
    :: List.concat_map
         (fun (_, base, size, _) ->
           base :: (base + size)
           :: List.concat_map
                (fun k -> [ base + (k * M.page_size); base + size - (k * M.page_size) ])
                [ 1; 2; 3; 4; 8 ])
         layout
  in
  frequency
    [
      (8, map2 ( + ) (oneofl anchors) (int_range (-9) 9));
      (1, int_range 0 0x40000);
    ]

let gen_mem_op gen_addr =
  let open QCheck2.Gen in
  let width = oneofl [ 1; 2; 4; 8 ] in
  let len = frequency [ (4, int_range 0 64); (1, int_range 0 10_000) ] in
  let str =
    string_size ~gen:(frequency [ (6, printable); (1, return '\000') ]) len
  in
  frequency
    [
      (3, map2 (fun w a -> Load (w, a)) width gen_addr);
      (3, map3 (fun w a v -> Store (w, a, v)) width gen_addr int64);
      (2, map2 (fun w a -> Load_to (w, a)) width gen_addr);
      (2, map3 (fun w a v -> Store_from (w, a, v)) width gen_addr int64);
      (1, map2 (fun a n -> Read (a, n)) gen_addr len);
      (2, map2 (fun a s -> Write (a, s)) gen_addr str);
      (1, map2 (fun a s -> Write_protected (a, s)) gen_addr str);
      (1, map2 (fun a m -> Cstring (a, m)) gen_addr (int_range 1 64));
      (1, map2 (fun a b -> Flip (a, b)) gen_addr (int_range 0 7));
    ]

type mem_result = Value of string | Faulted of M.fault | Invalid

let observe f =
  match f () with
  | v -> Value v
  | exception M.Fault fault -> Faulted fault
  | exception Invalid_argument _ -> Invalid

let show_result = function
  | Value v -> Printf.sprintf "value %S" v
  | Faulted f -> "fault: " ^ M.fault_to_string f
  | Invalid -> "Invalid_argument"

let apply_real m = function
  | Load (w, a) -> observe (fun () -> Int64.to_string (M.load m ~width:w a))
  | Store (w, a, v) -> observe (fun () -> M.store m ~width:w a v; "")
  | Load_to (w, a) ->
      (* through a slot in the middle of a frame *)
      let frame = Bytes.make 24 '\xa5' in
      observe (fun () ->
          M.load_to m ~width:w a frame 8;
          Int64.to_string (Bytes.get_int64_ne frame 8))
  | Store_from (w, a, v) ->
      let frame = Bytes.make 24 '\xa5' in
      Bytes.set_int64_ne frame 8 v;
      observe (fun () -> M.store_from m ~width:w a frame 8; "")
  | Read (a, n) -> observe (fun () -> M.read_bytes m a n)
  | Write (a, s) -> observe (fun () -> M.write_bytes m a s; "")
  | Write_protected (a, s) -> observe (fun () -> M.write_protected m a s; "")
  | Cstring (a, max) -> observe (fun () -> M.cstring m ~max a)
  | Flip (a, bit) -> observe (fun () -> M.flip_bit m ~addr:a ~bit; "")

let apply_model e = function
  | Load (w, a) | Load_to (w, a) ->
      observe (fun () -> Int64.to_string (Eager.load e ~width:w a))
  | Store (w, a, v) | Store_from (w, a, v) ->
      observe (fun () -> Eager.store e ~width:w a v; "")
  | Read (a, n) -> observe (fun () -> Eager.read_bytes e a n)
  | Write (a, s) -> observe (fun () -> Eager.write_bytes_perm ~check:true e a s; "")
  | Write_protected (a, s) ->
      observe (fun () -> Eager.write_bytes_perm ~check:false e a s; "")
  | Cstring (a, max) -> observe (fun () -> Eager.cstring e ~max a)
  | Flip (a, bit) -> observe (fun () -> Eager.flip_bit e ~addr:a ~bit; "")

let prop_memory_matches_eager_model =
  QCheck2.Test.make ~count:500 ~name:"memory matches eager reference model"
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(
      frequency
        [
          (1, list_size (int_range 1 60) (gen_mem_op (gen_addr_in model_layout)));
          (* op [j] near segment [j mod k] of [k] = 2 or 3: runs that
             alternate between two segments hit the segment cache's
             second entry and swap, runs over three miss both and scan *)
          ( 2,
            let* k = int_range 2 3 in
            let* segs = shuffle_l model_layout in
            let segs = Array.of_list (List.filteri (fun i _ -> i < k) segs) in
            let* n = int_range 1 60 in
            flatten_l
              (List.init n (fun j -> gen_mem_op (gen_addr_in [ segs.(j mod k) ]))) );
        ])
    (fun ops ->
      let m = M.create model_layout and e = Eager.create model_layout in
      List.iteri
        (fun i op ->
          let got = apply_real m op and want = apply_model e op in
          if got <> want then
            QCheck2.Test.fail_reportf "op %d (%s): got %s, model %s" i (show_op op)
              (show_result got) (show_result want);
          if M.touched_bytes m <> Eager.touched_bytes e then
            QCheck2.Test.fail_reportf "op %d (%s): touched_bytes %d, model %d" i
              (show_op op) (M.touched_bytes m) (Eager.touched_bytes e))
        ops;
      (* every byte of every extent agrees at the end *)
      List.for_all
        (fun (_, base, size, _) ->
          observe (fun () -> M.read_bytes m base size)
          = observe (fun () -> Eager.read_bytes e base size))
        model_layout)

let mib = 1024 * 1024

let allocated_during f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)

let test_stack_top_materializes_little () =
  let m = M.create [ ("stack", 0x100000, mib, M.Read_write) ] in
  let (), bytes =
    allocated_during (fun () -> M.store m ~width:8 (0x100000 + mib - 8) 7L)
  in
  Alcotest.(check bool)
    (Printf.sprintf "first access at the top allocated %.0f bytes" bytes)
    true (bytes <= 16384.)

let test_downward_growth_keeps_contents () =
  let top = 0x100000 + mib in
  let m = M.create [ ("stack", 0x100000, mib, M.Read_write) ] in
  (* each store lies below everything materialized so far *)
  let addrs = [ top - 8; top - 5000; top - 20_000; top - 100_000; top - 700_000; 0x100000 ] in
  List.iteri (fun i a -> M.store m ~width:8 a (Int64.of_int (i + 1))) addrs;
  List.iteri
    (fun i a ->
      Alcotest.(check int64) (Printf.sprintf "0x%x" a) (Int64.of_int (i + 1))
        (M.load m ~width:8 a))
    addrs;
  Alcotest.(check int64) "untouched stays zero" 0L (M.load m ~width:8 (top - 50_000))

let test_flip_untouched_byte () =
  let m = M.create [ ("heap", 0x100000, mib, M.Read_write) ] in
  M.flip_bit m ~addr:(0x100000 + 300_000) ~bit:3;
  Alcotest.(check int) "a flip touches no page" 0 (M.touched_bytes m);
  Alcotest.(check int64) "bit set" 8L (M.load m ~width:1 (0x100000 + 300_000));
  Alcotest.(check int64) "neighbours zero" 0L (M.load m ~width:1 (0x100000 + 300_001))

(* [touched_bytes] counts only the pages of the materialized window.
   The extent ends 1000 bytes short of a page boundary, so the first
   store materializes a 3,096-byte window, the second doubles it to
   7,192 page-aligned bytes, and the third, one page lower still, grows
   it to twice that from the top: a window whose low end lies 1000 bytes
   into a page.  A load from that low end touches the partial page. *)
let test_touched_bytes_follow_window () =
  let size = (8 * mib) - 1000 in
  let base = 0x1000000 in
  let top = base + size in
  let m = M.create [ ("heap", base, size, M.Read_write) ] in
  List.iteri
    (fun i a ->
      M.store m ~width:8 a 1L;
      Alcotest.(check int)
        (Printf.sprintf "%d page(s) touched" (i + 1))
        ((i + 1) * M.page_size) (M.touched_bytes m))
    [ top - 8; top - 8 - 4096; top - 8 - 8192 ];
  Alcotest.(check int) "an 8 MiB heap that touched 3 pages" 12_288 (M.touched_bytes m);
  ignore (M.load m ~width:1 (top - (2 * 7192)));
  Alcotest.(check int) "the window's partial first page counts" 16_384 (M.touched_bytes m)

(* ------------------------------------------------------------------ *)
(* Exec: faults, builtins, accounting *)

(* A fresh state pays for the bytes its program initializes, not for
   its 9 MiB address space. *)
let test_prepare_allocation_bound () =
  let w = Option.get (Apps.Spec.find "gobmk") in
  let prog = Lazy.force w.program in
  ignore (Machine.Exec.prepare prog);
  let _, bytes = allocated_during (fun () -> Machine.Exec.prepare prog) in
  Alcotest.(check bool)
    (Printf.sprintf "prepare allocated %.0f bytes" bytes)
    true (bytes < 65536.)

let outcome_testable =
  Alcotest.testable
    (fun fmt o -> Format.pp_print_string fmt (Machine.Exec.outcome_to_string o))
    ( = )

let test_exit_code () =
  let outcome, _ = run_prog (compile "int main() { return 7; }") in
  Alcotest.(check outcome_testable) "exit 7" (Machine.Exec.Exit 7L) outcome

let test_exit_builtin () =
  let outcome, _ =
    run_prog (compile "int main() { exit(3); print_int(1); return 0; }")
  in
  Alcotest.(check outcome_testable) "exit 3" (Machine.Exec.Exit 3L) outcome

let test_division_by_zero_faults () =
  let outcome, _ =
    run_prog (compile "long g = 0; int main() { return (int)(5 / g); }")
  in
  match outcome with
  | Machine.Exec.Fault { fault = Machine.Memory.Misc m; _ } ->
      Alcotest.(check string) "reason" "division by zero" m
  | o -> Alcotest.failf "expected division fault, got %s" (Machine.Exec.outcome_to_string o)

let test_wild_pointer_faults () =
  let outcome, _ =
    run_prog (compile "int main() { *(long*)123456789 = 1; return 0; }")
  in
  match outcome with
  | Machine.Exec.Fault { fault = Machine.Memory.Out_of_bounds _; _ } -> ()
  | o -> Alcotest.failf "expected OOB, got %s" (Machine.Exec.outcome_to_string o)

let test_stack_overflow_faults () =
  let outcome, _ =
    run_prog
      (compile
         {|
long deep(long n) {
  char pad[4096];
  pad[0] = (char)n;
  return deep(n + 1) + pad[0];
}
int main() { return (int)deep(0); }
|})
  in
  match outcome with
  | Machine.Exec.Fault { fault = Machine.Memory.Stack_overflow _; _ } -> ()
  | o -> Alcotest.failf "expected stack overflow, got %s" (Machine.Exec.outcome_to_string o)

let test_fuel_exhaustion () =
  let outcome, _ =
    run_prog ~fuel:1000 (compile "int main() { while (1) {} return 0; }")
  in
  Alcotest.(check outcome_testable) "fuel" Machine.Exec.Fuel_exhausted outcome

let test_strncpy_size_t_semantics () =
  (* negative n behaves as a huge unsigned bound: copy until NUL *)
  let outcome, stats =
    run_prog
      (compile
         {|
char dst[64];
int main() {
  strncpy(dst, "overflowing", 0 - 1);
  print_str(dst);
  return 0;
}
|})
  in
  Alcotest.(check outcome_testable) "ok" (Machine.Exec.Exit 0L) outcome;
  Alcotest.(check string) "copied fully" "overflowing" stats.output

let test_snprintf_cat_semantics () =
  let outcome, stats =
    run_prog
      (compile
         {|
char dst[8];
int main() {
  long need = snprintf_cat(dst, 4, "abcdef");
  print_int(need);
  print_str(dst);
  return 0;
}
|})
  in
  Alcotest.(check outcome_testable) "ok" (Machine.Exec.Exit 0L) outcome;
  (* returns the WOULD-BE length (6) but writes only 3 bytes + NUL *)
  Alcotest.(check string) "truncated write, full need" "6abc" stats.output

let test_memcpy_and_memset () =
  let _, stats =
    run_prog
      (compile
         {|
char a[8];
char b[8];
int main() {
  memset(a, 65, 7);
  a[7] = 0;
  memcpy(b, a, 8);
  print_str(b);
  return 0;
}
|})
  in
  Alcotest.(check string) "AAAAAAA" "AAAAAAA" stats.output

let test_input_byte_eof () =
  let _, stats =
    run_prog ~input:"x"
      (compile
         {|
int main() {
  print_int(input_byte());
  print_int(input_byte());
  return 0;
}
|})
  in
  Alcotest.(check string) "byte then EOF" "120-1" stats.output

let test_frame_adjacency () =
  (* callee buffers sit directly below caller locals: an overflow from
     the callee reaches the caller's frame — the property every DOP
     exploit here depends on *)
  let _, stats =
    run_prog
      (compile
         {|
void smash() {
  char buf[8];
  long i = 0;
  while (i < 24) { buf[i] = 66; i += 1; }
}
int main() {
  char cushion[64];
  long victim = 0;
  cushion[0] = 0;
  smash();
  print_int(victim != 0);
  return 0;
}
|})
  in
  Alcotest.(check string) "caller local corrupted" "1" stats.output

let test_stats_accounting () =
  let _, stats =
    run_prog
      (compile
         {|
long leaf() { char pad[100]; pad[0] = 1; return pad[0]; }
long mid() { return leaf(); }
int main() { return (int)(mid() - 1); }
|})
  in
  Alcotest.(check int) "calls" 3 stats.call_count;
  Alcotest.(check int) "max depth" 3 stats.max_depth;
  Alcotest.(check bool) "max frame >= 100" true (stats.max_frame_bytes >= 100);
  Alcotest.(check bool) "cycles positive" true (stats.cycles > 0.)

let test_intrinsic_unregistered () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  ignore (Ir.Builder.intrinsic b "no.such.intrinsic" []);
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let st = Machine.Exec.prepare prog in
  match Machine.Exec.run st with
  | Machine.Exec.Fault { fault = Machine.Memory.Misc _; _ }, _ -> ()
  | o, _ -> Alcotest.failf "expected fault, got %s" (Machine.Exec.outcome_to_string o)

let test_detect_exception_classified () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  ignore (Ir.Builder.intrinsic b "boom" []);
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let st = Machine.Exec.prepare prog in
  Machine.Exec.register_intrinsic st "boom" (fun _ _ ->
      raise (Machine.Exec.Detect "tripwire"));
  match Machine.Exec.run st with
  | Machine.Exec.Detected { reason = "tripwire"; _ }, _ -> ()
  | o, _ -> Alcotest.failf "expected detection, got %s" (Machine.Exec.outcome_to_string o)

let test_trace_records_calls () =
  let prog =
    compile
      {|
long leaf(long n) { long x = n + 1; return x; }
int main() { return (int)(leaf(41) - 42); }
|}
  in
  let st = Machine.Exec.prepare prog in
  let t = Machine.Trace.create () in
  Machine.Trace.attach t st;
  let outcome, _ = Machine.Exec.run st in
  Alcotest.(check bool) "ran" true (outcome = Machine.Exec.Exit 0L);
  let calls =
    List.filter_map
      (function Machine.Trace.Ev_call { func; _ } -> Some func | _ -> None)
      (Machine.Trace.events t)
  in
  Alcotest.(check (list string)) "call order" [ "main"; "leaf" ] calls;
  let rendered = Machine.Trace.render t in
  Alcotest.(check bool) "renders" true (String.length rendered > 0);
  Alcotest.(check int) "nothing dropped" 0 (Machine.Trace.dropped t)

let test_trace_ring_bounds () =
  let prog =
    compile
      {|
long tick(long n) { return n; }
int main() {
  long i = 0;
  while (i < 100) { tick(i); i += 1; }
  return 0;
}
|}
  in
  let st = Machine.Exec.prepare prog in
  let t = Machine.Trace.create ~capacity:16 () in
  Machine.Trace.attach t st;
  ignore (Machine.Exec.run st);
  Alcotest.(check int) "ring holds capacity" 16
    (List.length (Machine.Trace.events t));
  Alcotest.(check bool) "drops counted" true (Machine.Trace.dropped t > 0)

(* Exact dropped accounting and render ~limit ordering on an overfilled
   ring, without a machine in the loop — Trace.record is the same hook
   attach installs. *)
let mk_ev i =
  Machine.Trace.Ev_intrinsic { name = Printf.sprintf "e%d" i; result = None }

let ev_name = function
  | Machine.Trace.Ev_intrinsic { name; _ } -> name
  | _ -> "?"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_trace_dropped_exact () =
  let t = Machine.Trace.create ~capacity:4 () in
  Alcotest.(check int) "empty ring" 0 (Machine.Trace.dropped t);
  for i = 0 to 3 do
    Machine.Trace.record t (mk_ev i)
  done;
  Alcotest.(check int) "exactly full: nothing dropped" 0
    (Machine.Trace.dropped t);
  Alcotest.(check int) "exactly full: all retained" 4
    (List.length (Machine.Trace.events t));
  Machine.Trace.record t (mk_ev 4);
  Alcotest.(check int) "one past capacity drops one" 1
    (Machine.Trace.dropped t);
  for i = 5 to 9 do
    Machine.Trace.record t (mk_ev i)
  done;
  Alcotest.(check int) "10 through a 4-ring drops 6" 6
    (Machine.Trace.dropped t);
  Alcotest.(check (list string))
    "survivors are the newest, oldest first"
    [ "e6"; "e7"; "e8"; "e9" ]
    (List.map ev_name (Machine.Trace.events t))

let test_trace_capacity_one () =
  let t = Machine.Trace.create ~capacity:1 () in
  for i = 0 to 2 do
    Machine.Trace.record t (mk_ev i)
  done;
  Alcotest.(check int) "dropped" 2 (Machine.Trace.dropped t);
  Alcotest.(check (list string)) "only the newest" [ "e2" ]
    (List.map ev_name (Machine.Trace.events t))

let test_trace_render_limit () =
  let t = Machine.Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Machine.Trace.record t (mk_ev i)
  done;
  (match String.split_on_char '\n' (String.trim (Machine.Trace.render ~limit:2 t)) with
  | [ drop; a; b ] ->
      Alcotest.(check bool) "drop banner first" true (contains drop "dropped");
      Alcotest.(check bool) "then e8" true (contains a "e8");
      Alcotest.(check bool) "then e9" true (contains b "e9")
  | lines ->
      Alcotest.failf "render ~limit:2 gave %d lines" (List.length lines));
  (* limit above retention: everything retained, oldest first *)
  let full = Machine.Trace.render ~limit:100 t in
  let pos needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length full then -1
      else if String.sub full i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun j ->
      Alcotest.(check bool) (Printf.sprintf "contains e%d" j) true (pos (Printf.sprintf "@e%d" j) >= 0))
    [ 6; 7; 8; 9 ];
  Alcotest.(check bool) "oldest first" true (pos "@e6" < pos "@e9");
  Alcotest.(check bool) "e5 gone" false (contains full "@e5")

let test_trace_captures_detection () =
  let prog =
    compile
      {|
void smash() {
  char buf[16];
  long x = 1;
  long i = 0;
  while (i < 200) { buf[i] = 90; i += 1; }
  x += buf[3];
}
int main() {
  char cushion[512];
  cushion[0] = 0;
  smash();
  return 0;
}
|}
  in
  let hardened = Smokestack.Harden.harden Smokestack.Config.default prog in
  let st =
    Smokestack.Harden.prepare hardened ~entropy:(Crypto.Entropy.create ~seed:2L)
  in
  let t = Machine.Trace.create () in
  Machine.Trace.attach t st;
  (match Machine.Exec.run st with
  | Machine.Exec.Detected _, _ -> ()
  | o, _ -> Alcotest.failf "expected detection, got %s" (Machine.Exec.outcome_to_string o));
  Alcotest.(check bool) "trace shows the detection" true
    (List.exists
       (function Machine.Trace.Ev_detected _ -> true | _ -> false)
       (Machine.Trace.events t))

let () =
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_memory_rw_roundtrip;
          Alcotest.test_case "write protection" `Quick test_memory_write_protection;
          Alcotest.test_case "oob and null" `Quick test_memory_oob_and_null;
          Alcotest.test_case "overlap rejected" `Quick test_memory_overlap_rejected;
          Alcotest.test_case "touched pages" `Quick test_touched_pages;
          Alcotest.test_case "cstring" `Quick test_cstring;
          Alcotest.test_case "stack top materializes little" `Quick
            test_stack_top_materializes_little;
          Alcotest.test_case "downward growth keeps contents" `Quick
            test_downward_growth_keeps_contents;
          Alcotest.test_case "flip untouched byte" `Quick test_flip_untouched_byte;
          QCheck_alcotest.to_alcotest prop_memory_matches_eager_model;
          Alcotest.test_case "touched bytes follow the window" `Quick
            test_touched_bytes_follow_window;
        ] );
      ( "exec",
        [
          Alcotest.test_case "prepare allocation bound" `Quick
            test_prepare_allocation_bound;
          Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "exit builtin" `Quick test_exit_builtin;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero_faults;
          Alcotest.test_case "wild pointer" `Quick test_wild_pointer_faults;
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow_faults;
          Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
          Alcotest.test_case "frame adjacency" `Quick test_frame_adjacency;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "unregistered intrinsic" `Quick test_intrinsic_unregistered;
          Alcotest.test_case "detect classified" `Quick test_detect_exception_classified;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records calls" `Quick test_trace_records_calls;
          Alcotest.test_case "ring bounds" `Quick test_trace_ring_bounds;
          Alcotest.test_case "dropped exact" `Quick test_trace_dropped_exact;
          Alcotest.test_case "capacity one" `Quick test_trace_capacity_one;
          Alcotest.test_case "render limit" `Quick test_trace_render_limit;
          Alcotest.test_case "captures detection" `Quick test_trace_captures_detection;
        ] );
      ( "builtins",
        [
          Alcotest.test_case "strncpy size_t" `Quick test_strncpy_size_t_semantics;
          Alcotest.test_case "snprintf_cat" `Quick test_snprintf_cat_semantics;
          Alcotest.test_case "memcpy/memset" `Quick test_memcpy_and_memset;
          Alcotest.test_case "input_byte EOF" `Quick test_input_byte_eof;
        ] );
    ]
