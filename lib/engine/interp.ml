(* Flat dispatch loop over compiled bytecode.

   Runs an image Compile made against a fresh state of the program it
   was compiled from; the image's owner (Backend.load) decides how long
   it lives.  Executes against the same Machine.Exec.state the
   reference interpreter uses, so every intrinsic, defense installation
   and adaptive-input callback works unchanged.  Observable behaviour must
   be bit-identical to Machine.Exec.run — same outcomes, same output,
   same float cycle accumulation (same charges in the same order), same
   instruction/call counts, same trace events.  test/test_engine.ml
   enforces this differentially; when editing here, keep every charge
   and side effect in the reference interpreter's order.

   The loop allocates nothing per instruction.  Registers and constants
   live in a [Bytes] frame read and written with the native-endian
   64-bit primitives (operands are byte offsets, see Compile), each IR
   operator has its own arm, loads and stores go straight between a
   memory segment and a frame slot, and [step] returns the frame offset
   of the return value, not the value.  A load or store inside the
   window of either segment in Memory's two-entry cache runs in this
   module, reading Memory's private record fields; any other access
   calls Memory.load_to/store_from (see [load] and [store] below).
   The hot op runs that Compile fuses run as one arm each, every half
   with its own tick and charge in reference order.
   Two rules keep it that way.  No arm may yield an already-boxed
   int64: a call that is not inlined (Int64.unsigned_div, invalid_arg
   used as a value, any function of another module) takes and returns
   boxed int64s, and where the arms of a match yield an int64, one such
   arm boxes every arm's result — so each arm stores its own result,
   and the unsigned division below is spelled out.  And hot helpers
   live in this module: the dev profile compiles with -opaque, so
   nothing inlines across modules.  The [alloc] group of
   test/test_engine.ml fails when an op's loop starts allocating.  A
   call allocates its frame (one copy of the template); builtins and
   intrinsics also get the [int64 array] their interface takes.

   Cycle accounting uses an unboxed one-element [floatarray]
   accumulator instead of charging the (boxed) [st.cycles] field per
   instruction.  Float addition is not associative, so charges are
   still applied one at a time in reference order — only the storage
   differs, which keeps the bits identical.  The accumulator is flushed
   to [st.cycles] around every external closure (builtins, intrinsics,
   trace hooks) because those may read or charge [st.cycles]
   themselves, and re-synced afterwards on both the normal and the
   exception path. *)

open Compile
module Exec = Machine.Exec
module Memory = Machine.Memory
module Cost = Machine.Cost

(* Unchecked frame slots: Compile emits only offsets inside the frame
   (registers outside it become traps or the sink). *)
external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Per-run context of the dispatch loop. *)
type rt = {
  st : Exec.state;
  funcs : bfunc array;
  impls : Exec.intrinsic option array;
      (* intrinsic closures, linked lazily per run: registration happens
         after prepare (and in principle during execution), and an
         unregistered intrinsic must only fault when it executes *)
  cyc : Float.Array.t;  (* the cycle accumulator, one element *)
  mutable cur : string;  (* innermost function, for fault reports *)
}

let[@inline] charge rt c =
  Float.Array.unsafe_set rt.cyc 0 (Float.Array.unsafe_get rt.cyc 0 +. c)

let flush rt = rt.st.cycles <- Float.Array.unsafe_get rt.cyc 0
let resync rt = Float.Array.unsafe_set rt.cyc 0 rt.st.cycles

(* trace hooks are arbitrary closures that may inspect the state, so
   they see an up-to-date [st.cycles] just like under the reference *)
let emit_sync rt emit ev =
  flush rt;
  match emit ev with
  | () -> resync rt
  | exception e ->
      resync rt;
      raise e

let[@inline] tick (st : Exec.state) =
  st.instr_count <- st.instr_count + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Exec.Out_of_fuel

let div_by_zero = Memory.Fault (Memory.Misc "division by zero")
let[@inline] of_bool b = if b then 1L else 0L
let[@inline] ult (a : int64) b =
  Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

(* Int64.unsigned_div, inlined *)
let[@inline] udiv n d =
  if d < 0L then of_bool (not (ult n d))
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    if ult (Int64.sub n (Int64.mul q d)) d then q else Int64.succ q

(* The memory fast path.  A load or store that falls inside the
   window of one of the two segments Memory's cache holds (Memory.t's
   [last], then [prev]) runs in this module: the window test, the
   page's touched byte (both pages' when the access straddles one) and
   the little-endian width decode, exactly as Memory.load_to/store_from
   would do them.  A hit on [prev] leaves the cache's order alone: only
   Memory writes it, and nothing but speed depends on it.  Anything
   else goes to those functions: a miss in both windows, a store into a
   read-only segment, a bad width, a big-endian host, and every access
   while a fault-injection hook is installed, so the hook still fires
   before each one.  [lo] and [bytes] are read afresh every time,
   because growing a window (a miss, or a hook's Memory.flip_bit)
   replaces both. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let page_bits = 12
let () = assert (Memory.page_size = 1 lsl page_bits)

let[@inline] in_window (s : Memory.seg) a width =
  a >= s.lo && a - s.lo <= Bytes.length s.bytes - width

(* The index of the cached segment whose window holds [a, a + width),
   or -1, also whenever the fast path must not run.  Windows are
   disjoint, so at most one holds it. *)
let[@inline] cached (m : Memory.t) a width =
  if Sys.big_endian then -1
  else
    match m.on_access with
    | Some _ -> -1
    | None ->
        if in_window (Array.unsafe_get m.segs m.last) a width then m.last
        else if in_window (Array.unsafe_get m.segs m.prev) a width then m.prev
        else -1

let[@inline] touch (s : Memory.seg) a width =
  let off = a - s.base in
  Bytes.unsafe_set s.touched (off lsr page_bits) '\001';
  Bytes.unsafe_set s.touched ((off + width - 1) lsr page_bits) '\001'

let load_in (m : Memory.t) (s : Memory.seg) ~width a frame dst =
  let b = s.bytes and i = a - s.lo in
  match width with
  | 1 ->
      touch s a 1;
      set frame dst (Int64.of_int (Char.code (Bytes.unsafe_get b i)))
  | 2 ->
      touch s a 2;
      set frame dst (Int64.of_int (get16 b i))
  | 4 ->
      touch s a 4;
      set frame dst (Int64.of_int (Int32.to_int (get32 b i) land 0xffffffff))
  | 8 ->
      touch s a 8;
      set frame dst (get b i)
  | _ -> Memory.load_to m ~width a frame dst

let store_in (m : Memory.t) (s : Memory.seg) ~width a frame value =
  let b = s.bytes and i = a - s.lo and v = get frame value in
  match width with
  | 1 ->
      touch s a 1;
      Bytes.unsafe_set b i (Char.unsafe_chr (Int64.to_int v land 0xff))
  | 2 ->
      touch s a 2;
      set16 b i (Int64.to_int v land 0xffff)
  | 4 ->
      touch s a 4;
      set32 b i (Int64.to_int32 v)
  | 8 ->
      touch s a 8;
      set b i v
  | _ -> Memory.store_from m ~width a frame value

let[@inline] load (m : Memory.t) ~width a frame dst =
  let k = cached m a width in
  if k >= 0 then load_in m (Array.unsafe_get m.segs k) ~width a frame dst
  else Memory.load_to m ~width a frame dst

let[@inline] store (m : Memory.t) ~width a frame value =
  let k = cached m a width in
  if k >= 0 && (Array.unsafe_get m.segs k).perm == Memory.Read_write then
    store_in m (Array.unsafe_get m.segs k) ~width a frame value
  else Memory.store_from m ~width a frame value

(* [Oload]'s charge depends on the address: rodata loads are cheaper *)
let[@inline] charge_load rt a =
  charge rt
    (if a >= Exec.rodata_base && a < Exec.data_base then Cost.load_rodata
     else Cost.load)

(* A select arm or call argument: [lnot i] is trap [i]. *)
let[@inline] arg (bf : bfunc) frame o =
  if o < 0 then raise (Array.unsafe_get bf.traps (lnot o)) else get frame o

let read_args bf frame args =
  let argv = Array.make (Array.length args) 0L in
  for i = 0 to Array.length args - 1 do
    Array.unsafe_set argv i (arg bf frame (Array.unsafe_get args i))
  done;
  argv

(* The callee's frame with the arguments in its parameter slots.  Every
   argument is read, in order, before the call is counted, as in the
   reference; a count mismatch faults later, in [call_fn]. *)
let enter bf frame args (callee : bfunc) =
  let fr = Bytes.copy callee.frame in
  let params = callee.params in
  for i = 0 to Array.length args - 1 do
    let v = arg bf frame (Array.unsafe_get args i) in
    if i < Array.length params then set fr (Array.unsafe_get params i) v
  done;
  fr

let intrinsic rt slot name =
  match Array.unsafe_get rt.impls slot with
  | Some fn -> fn
  | None -> (
      match Hashtbl.find_opt rt.st.intrinsics name with
      | Some fn ->
          rt.impls.(slot) <- Some fn;
          fn
      | None ->
          raise
            (Memory.Fault
               (Memory.Misc (Printf.sprintf "unregistered intrinsic %s" name))))

(* Runs [bf] on its prepared [frame]; returns the frame offset of the
   return value. *)
let rec call_fn rt (bf : bfunc) frame nargs =
  let st = rt.st in
  st.call_count <- st.call_count + 1;
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then st.max_depth <- st.depth;
  charge rt Cost.call_overhead;
  let caller = rt.cur in
  rt.cur <- bf.fname;
  (match st.on_event with
  | Some emit ->
      emit_sync rt emit
        (Exec.Ev_call { func = bf.fname; depth = st.depth; sp = st.sp })
  | None -> ());
  let entry_sp = st.sp in
  let nparams = Array.length bf.params in
  if nargs <> nparams then
    raise
      (Memory.Fault
         (Memory.Misc
            (Printf.sprintf "call to %s with %d args, expected %d" bf.fname
               nargs nparams)));
  match step rt bf bf.code frame entry_sp 0 with
  | ret ->
      st.sp <- entry_sp;
      st.depth <- st.depth - 1;
      (match st.on_event with
      | Some emit ->
          emit_sync rt emit (Exec.Ev_return { func = bf.fname; depth = st.depth })
      | None -> ());
      rt.cur <- caller;
      ret
  | exception e ->
      (* unwind bookkeeping but propagate, as the reference does *)
      st.depth <- st.depth - 1;
      raise e

and step rt bf code frame entry_sp pc =
  let st = rt.st in
  match Array.unsafe_get code pc with
  | Oadd { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (Int64.add (get frame lhs) (get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Osub { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (Int64.sub (get frame lhs) (get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Omul { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (Int64.mul (get frame lhs) (get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Osdiv { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.div;
      let b = get frame rhs in
      if b = 0L then raise div_by_zero;
      set frame dst (Int64.div (get frame lhs) b);
      step rt bf code frame entry_sp (pc + 1)
  | Oudiv { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.div;
      let b = get frame rhs in
      if b = 0L then raise div_by_zero;
      set frame dst (udiv (get frame lhs) b);
      step rt bf code frame entry_sp (pc + 1)
  | Osrem { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.div;
      let b = get frame rhs in
      if b = 0L then raise div_by_zero;
      set frame dst (Int64.rem (get frame lhs) b);
      step rt bf code frame entry_sp (pc + 1)
  | Ourem { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.div;
      let b = get frame rhs in
      if b = 0L then raise div_by_zero;
      let a = get frame lhs in
      set frame dst (Int64.sub a (Int64.mul (udiv a b) b));
      step rt bf code frame entry_sp (pc + 1)
  | Oand { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (Int64.logand (get frame lhs) (get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Oor { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (Int64.logor (get frame lhs) (get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Oxor { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (Int64.logxor (get frame lhs) (get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Oshl { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst
        (Int64.shift_left (get frame lhs) (Int64.to_int (get frame rhs) land 63));
      step rt bf code frame entry_sp (pc + 1)
  | Olshr { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst
        (Int64.shift_right_logical (get frame lhs)
           (Int64.to_int (get frame rhs) land 63));
      step rt bf code frame entry_sp (pc + 1)
  | Oashr { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst
        (Int64.shift_right (get frame lhs) (Int64.to_int (get frame rhs) land 63));
      step rt bf code frame entry_sp (pc + 1)
  | Oeq { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (of_bool (get frame lhs = get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | One { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (of_bool (get frame lhs <> get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Oslt { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (of_bool (get frame lhs < get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Osle { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (of_bool (get frame lhs <= get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Osgt { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (of_bool (get frame lhs > get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Osge { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (of_bool (get frame lhs >= get frame rhs));
      step rt bf code frame entry_sp (pc + 1)
  | Oult { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (of_bool (ult (get frame lhs) (get frame rhs)));
      step rt bf code frame entry_sp (pc + 1)
  | Oule { dst; lhs; rhs } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (of_bool (not (ult (get frame rhs) (get frame lhs))));
      step rt bf code frame entry_sp (pc + 1)
  | Oselect { dst; cond; if_true; if_false } ->
      tick st;
      charge rt Cost.alu;
      (* the non-taken arm is never read, as in the reference *)
      set frame dst
        (arg bf frame (if get frame cond = 0L then if_false else if_true));
      step rt bf code frame entry_sp (pc + 1)
  | Osext { dst; shift; value } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (Int64.shift_right (Int64.shift_left (get frame value) shift) shift);
      step rt bf code frame entry_sp (pc + 1)
  | Otrunc { dst; shift; value } ->
      tick st;
      charge rt Cost.alu;
      set frame dst
        (Int64.shift_right_logical (Int64.shift_left (get frame value) shift) shift);
      step rt bf code frame entry_sp (pc + 1)
  | Ogep { dst; base; offset; index; scale } ->
      tick st;
      charge rt Cost.alu;
      set frame dst
        (Int64.add
           (Int64.add (get frame base) (Int64.of_int offset))
           (Int64.mul (get frame index) (Int64.of_int scale)));
      step rt bf code frame entry_sp (pc + 1)
  | Oload { dst; width; addr } ->
      tick st;
      let a = Int64.to_int (get frame addr) in
      charge_load rt a;
      load st.mem ~width a frame dst;
      step rt bf code frame entry_sp (pc + 1)
  | Ostore { width; value; addr } ->
      tick st;
      charge rt Cost.store;
      store st.mem ~width (Int64.to_int (get frame addr)) frame value;
      step rt bf code frame entry_sp (pc + 1)
  | Oalloca { dst; elt; align; count } ->
      tick st;
      let n = get frame count in
      if n < 0L || n > 0x10000000L then
        raise (Memory.Fault (Memory.Misc "VLA length out of range"));
      let bytes = elt * Int64.to_int n in
      let new_sp = Sutil.Align.align_down (st.sp - bytes) ~alignment:align in
      if new_sp < st.stack_limit then
        raise (Memory.Fault (Memory.Stack_overflow { sp = st.sp; need = bytes }));
      st.sp <- new_sp;
      if entry_sp - new_sp > st.max_frame_bytes then
        st.max_frame_bytes <- entry_sp - new_sp;
      charge rt Cost.alloca;
      set frame dst (Int64.of_int new_sp);
      step rt bf code frame entry_sp (pc + 1)
  | Ocall { dst; fidx; args } ->
      tick st;
      let callee = Array.unsafe_get rt.funcs fidx in
      let fr = enter bf frame args callee in
      let ret = call_fn rt callee fr (Array.length args) in
      set frame dst (get fr ret);
      step rt bf code frame entry_sp (pc + 1)
  | Obuiltin { dst; name; args } ->
      tick st;
      let argv = read_args bf frame args in
      flush rt;
      let r =
        match Exec.run_builtin st name argv with
        | r ->
            resync rt;
            r
        | exception e ->
            resync rt;
            raise e
      in
      set frame dst (match r with Some v -> v | None -> 0L);
      step rt bf code frame entry_sp (pc + 1)
  | Ocall_unknown { name; args } ->
      tick st;
      ignore (read_args bf frame args);
      raise
        (Memory.Fault
           (Memory.Misc (Printf.sprintf "call to unknown function %s" name)))
  | Ocall_ind { dst; callee; args } ->
      tick st;
      let target = Int64.to_int (get frame callee) in
      let rel = target - Compile.token_base in
      if rel >= 0 && rel land 15 = 0 && rel asr 4 < Array.length rt.funcs then begin
        let callee = Array.unsafe_get rt.funcs (rel asr 4) in
        let fr = enter bf frame args callee in
        let ret = call_fn rt callee fr (Array.length args) in
        set frame dst (get fr ret);
        step rt bf code frame entry_sp (pc + 1)
      end
      else
        raise
          (Memory.Fault
             (Memory.Misc
                (Printf.sprintf "indirect call to non-function address 0x%x"
                   target)))
  | Ointrinsic { dst; slot; name; args } ->
      tick st;
      charge rt Cost.intrinsic_base;
      let fn = intrinsic rt slot name in
      let argv = read_args bf frame args in
      flush rt;
      let result =
        match fn st argv with
        | r ->
            resync rt;
            r
        | exception e ->
            resync rt;
            raise e
      in
      (match st.on_event with
      | Some emit -> emit_sync rt emit (Exec.Ev_intrinsic { name; result })
      | None -> ());
      set frame dst (match result with Some v -> v | None -> 0L);
      step rt bf code frame entry_sp (pc + 1)
  | Ojmp t ->
      charge rt Cost.branch;
      step rt bf code frame entry_sp t
  | Ocondbr { cond; if_true; if_false } ->
      charge rt Cost.cond_branch;
      step rt bf code frame entry_sp
        (if get frame cond = 0L then if_false else if_true)
  | Oret v ->
      charge rt Cost.branch;
      v
  | Ounreachable fname ->
      raise (Memory.Fault (Memory.Misc ("unreachable executed in " ^ fname)))
  | Oraise { counted; cost; exn } ->
      if counted then tick st;
      if cost > 0. then charge rt cost;
      raise exn
  (* Fused ops (Compile.fuse): each half as its own arm above would run
     it, in order, then on past the covered slots. *)
  | Ogep_load { dst; base; offset; index; scale; width; ldst } ->
      tick st;
      charge rt Cost.alu;
      let p =
        Int64.add
          (Int64.add (get frame base) (Int64.of_int offset))
          (Int64.mul (get frame index) (Int64.of_int scale))
      in
      set frame dst p;
      tick st;
      let a = Int64.to_int p in
      charge_load rt a;
      load st.mem ~width a frame ldst;
      step rt bf code frame entry_sp (pc + 2)
  | Oload_load { dst; width; addr; dst2; width2; addr2 } ->
      tick st;
      let a = Int64.to_int (get frame addr) in
      charge_load rt a;
      load st.mem ~width a frame dst;
      tick st;
      let a = Int64.to_int (get frame addr2) in
      charge_load rt a;
      load st.mem ~width:width2 a frame dst2;
      step rt bf code frame entry_sp (pc + 2)
  | Oadd_store { dst; lhs; rhs; width; addr } ->
      tick st;
      charge rt Cost.alu;
      set frame dst (Int64.add (get frame lhs) (get frame rhs));
      tick st;
      charge rt Cost.store;
      store st.mem ~width (Int64.to_int (get frame addr)) frame dst;
      step rt bf code frame entry_sp (pc + 2)
  | Ostore_jmp { width; value; addr; target } ->
      tick st;
      charge rt Cost.store;
      store st.mem ~width (Int64.to_int (get frame addr)) frame value;
      charge rt Cost.branch;
      step rt bf code frame entry_sp target
  | One_condbr { dst; lhs; rhs; if_true; if_false } ->
      tick st;
      charge rt Cost.alu;
      let c = get frame lhs <> get frame rhs in
      set frame dst (of_bool c);
      charge rt Cost.cond_branch;
      step rt bf code frame entry_sp (if c then if_true else if_false)
  | Oslt_condbr { dst; lhs; rhs; ndst; if_true; if_false } ->
      tick st;
      charge rt Cost.alu;
      let c = get frame lhs < get frame rhs in
      set frame dst (of_bool c);
      tick st;
      charge rt Cost.alu;
      set frame ndst (of_bool c);
      charge rt Cost.cond_branch;
      step rt bf code frame entry_sp (if c then if_true else if_false)
  | Oeq_condbr { dst; lhs; rhs; ndst; if_true; if_false } ->
      tick st;
      charge rt Cost.alu;
      let c = get frame lhs = get frame rhs in
      set frame dst (of_bool c);
      tick st;
      charge rt Cost.alu;
      set frame ndst (of_bool c);
      charge rt Cost.cond_branch;
      step rt bf code frame entry_sp (if c then if_true else if_false)

let run ?(fuel = 200_000_000) (prog : Compile.program) (st : Exec.state) =
  st.fuel <- fuel;
  let rt =
    {
      st;
      funcs = prog.funcs;
      impls = Array.make (Array.length prog.intrinsic_names) None;
      cyc = Float.Array.make 1 st.cycles;
      cur = "main";
    }
  in
  let outcome =
    match Hashtbl.find_opt prog.index "main" with
    | None -> Exec.Fault { fault = Memory.Misc "no entry function main"; func = "-" }
    | Some fidx -> (
        let bf = prog.funcs.(fidx) in
        let frame = Bytes.copy bf.frame in
        match call_fn rt bf frame 0 with
        | ret ->
            flush rt;
            Exec.Exit (get frame ret)
        | exception Exec.Exit_program code ->
            flush rt;
            Exec.Exit code
        | exception Memory.Fault fault ->
            flush rt;
            (match st.on_event with
            | Some emit ->
                emit (Exec.Ev_fault { detail = Memory.fault_to_string fault })
            | None -> ());
            Exec.Fault { fault; func = rt.cur }
        | exception Exec.Detect reason ->
            flush rt;
            (match st.on_event with
            | Some emit -> emit (Exec.Ev_detected { reason })
            | None -> ());
            Exec.Detected { reason; func = rt.cur }
        | exception Exec.Out_of_fuel ->
            flush rt;
            Exec.Fuel_exhausted)
  in
  (outcome, Exec.stats_of_state st)
