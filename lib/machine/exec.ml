type trace_event =
  | Ev_call of { func : string; depth : int; sp : int }
  | Ev_return of { func : string; depth : int }
  | Ev_intrinsic of { name : string; result : int64 option }
  | Ev_fault of { detail : string }
  | Ev_detected of { reason : string }
  | Ev_rng_degraded of { from_ : string; to_ : string option; reason : string }

type state = {
  prog : Ir.Prog.t;
  mem : Memory.t;
  stack_top : int;
  stack_limit : int;
  mutable sp : int;
  mutable heap_next : int;
  heap_limit : int;
  mutable cycles : float;
  mutable instr_count : int;
  mutable call_count : int;
  mutable depth : int;
  mutable max_depth : int;
  mutable max_frame_bytes : int;
  mutable fuel : int;
  output : Buffer.t;
  globals : (string, int) Hashtbl.t;
  func_tokens : (string, int) Hashtbl.t;
  token_funcs : (int, string) Hashtbl.t;
  intrinsics : (string, intrinsic) Hashtbl.t;
  mutable input : state -> int -> string;
  mutable on_event : (trace_event -> unit) option;
  mutable cur_func : string;
}

and intrinsic = state -> int64 array -> int64 option

type outcome =
  | Exit of int64
  | Fault of { fault : Memory.fault; func : string }
  | Detected of { reason : string; func : string }
  | Fuel_exhausted

type stats = {
  cycles : float;
  instr_count : int;
  call_count : int;
  max_depth : int;
  max_frame_bytes : int;
  rss_bytes : int;
  output : string;
}

let pp_outcome fmt = function
  | Exit code -> Format.fprintf fmt "exit %Ld" code
  | Fault { fault; func } ->
      Format.fprintf fmt "fault in %s: %a" func Memory.pp_fault fault
  | Detected { reason; func } ->
      Format.fprintf fmt "attack detected in %s: %s" func reason
  | Fuel_exhausted -> Format.pp_print_string fmt "fuel exhausted"

let outcome_to_string o = Format.asprintf "%a" pp_outcome o

exception Detect of string
exception Exit_program of int64
exception Out_of_fuel

(* Address-space map.  Function tokens live below every mapped segment
   so an indirect call through corrupted data faults. *)
let func_token_base = 0x1000
let rodata_base = 0x10000
let data_base = 0x200000
let heap_base = 0x400000
let stack_region_top = 0xd00000

let default_stack_top = stack_region_top

let input_string s =
  let pos = ref 0 in
  fun (_ : state) max ->
    let n = min max (String.length s - !pos) in
    let n = Stdlib.max n 0 in
    let chunk = String.sub s !pos n in
    pos := !pos + n;
    chunk

let prepare ?(heap_size = 8 * 1024 * 1024) ?(stack_size = 1024 * 1024)
    (prog : Ir.Prog.t) =
  (* Lay out globals: read-only first (rodata), then writable (data). *)
  let place base globs =
    List.fold_left
      (fun (addr, placed) (g : Ir.Prog.global) ->
        let a = Sutil.Align.align_up addr ~alignment:(max 8 (Ir.Ty.alignment g.gty)) in
        (a + Ir.Ty.size g.gty, (g, a) :: placed))
      (base, []) globs
  in
  let ro, rw = List.partition (fun (g : Ir.Prog.global) -> not g.gwritable) prog.globals in
  let ro_end, ro_placed = place rodata_base ro in
  let rw_end, rw_placed = place data_base rw in
  let seg_pad = 64 in
  let mem =
    Memory.create
      [
        ("rodata", rodata_base, max 64 (ro_end - rodata_base + seg_pad), Memory.Read_only);
        ("data", data_base, max 64 (rw_end - data_base + seg_pad), Memory.Read_write);
        ("heap", heap_base, heap_size, Memory.Read_write);
        ( "stack",
          stack_region_top - stack_size,
          stack_size,
          Memory.Read_write );
      ]
  in
  let globals = Hashtbl.create 32 in
  List.iter
    (fun ((g : Ir.Prog.global), addr) ->
      Hashtbl.replace globals g.gname addr;
      if String.length g.ginit > 0 then Memory.write_protected mem addr g.ginit)
    (ro_placed @ rw_placed);
  let func_tokens = Hashtbl.create 16 and token_funcs = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Ir.Func.t) ->
      let token = func_token_base + (i * 16) in
      Hashtbl.replace func_tokens f.name token;
      Hashtbl.replace token_funcs token f.name)
    prog.funcs;
  {
    prog;
    mem;
    stack_top = stack_region_top;
    stack_limit = stack_region_top - stack_size;
    sp = stack_region_top;
    heap_next = heap_base;
    heap_limit = heap_base + heap_size;
    cycles = 0.;
    instr_count = 0;
    call_count = 0;
    depth = 0;
    max_depth = 0;
    max_frame_bytes = 0;
    fuel = 0;
    output = Buffer.create 256;
    globals;
    func_tokens;
    token_funcs;
    intrinsics = Hashtbl.create 16;
    input = (fun _ _ -> "");
    on_event = None;
    cur_func = "?";
  }

let register_intrinsic st name fn = Hashtbl.replace st.intrinsics name fn
let set_input st f = st.input <- f

let global_addr st name =
  match Hashtbl.find_opt st.globals name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Machine.Exec.global_addr: no global %s" name)

let charge (st : state) c = st.cycles <- st.cycles +. c

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)

let builtin_names =
  [
    "memcpy"; "memset"; "memcmp"; "strlen"; "strcpy"; "strncpy"; "snprintf_cat";
    "malloc"; "free"; "print_int"; "print_char"; "print_str"; "print_newline";
    "read_input"; "input_byte"; "exit"; "abort";
  ]

let charge_builtin st bytes =
  charge st (Cost.builtin_base +. (Cost.builtin_per_byte *. float_of_int bytes))

let charge_syscall st = charge st Cost.syscall

(* size_t semantics: int64 interpreted unsigned, clamped to an int. *)
let as_size v =
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then max_int
  else Int64.to_int v

let run_builtin st name (args : int64 array) : int64 option =
  let arg i = args.(i) in
  let addr i = Int64.to_int (arg i) in
  match name with
  | "memcpy" ->
      let n = as_size (arg 2) in
      charge_builtin st n;
      let src = Memory.read_bytes st.mem (addr 1) n in
      Memory.write_bytes st.mem (addr 0) src;
      Some (arg 0)
  | "memset" ->
      let n = as_size (arg 2) in
      charge_builtin st n;
      Memory.write_bytes st.mem (addr 0)
        (String.make n (Char.chr (Int64.to_int (arg 1) land 0xff)));
      Some (arg 0)
  | "memcmp" ->
      let n = as_size (arg 2) in
      charge_builtin st n;
      let a = Memory.read_bytes st.mem (addr 0) n in
      let b = Memory.read_bytes st.mem (addr 1) n in
      Some (Int64.of_int (String.compare a b))
  | "strlen" ->
      let s = Memory.cstring st.mem (addr 0) in
      charge_builtin st (String.length s);
      Some (Int64.of_int (String.length s))
  | "strcpy" ->
      let s = Memory.cstring st.mem (addr 1) in
      charge_builtin st (String.length s + 1);
      Memory.write_bytes st.mem (addr 0) (s ^ "\000");
      Some (arg 0)
  | "strncpy" ->
      (* sstrncpy-style: copy up to n bytes (size_t!), stop after the
         source NUL.  A negative n, as in CVE-2006-5815, becomes a huge
         unsigned bound — the copy is limited only by the source. *)
      let n = as_size (arg 2) in
      let s = Memory.cstring st.mem (addr 1) in
      let copy = String.sub s 0 (min n (String.length s)) in
      let copy = if String.length copy < n then copy ^ "\000" else copy in
      charge_builtin st (String.length copy);
      Memory.write_bytes st.mem (addr 0) copy;
      Some (arg 0)
  | "snprintf_cat" ->
      (* Models the librelp use of snprintf: writes [src] NUL-terminated
         into dst bounded by size, but RETURNS the length it would have
         needed (CVE-2018-1000140's trap).  size is size_t: a negative
         32/64-bit difference becomes huge and unbounds the write. *)
      let size = as_size (arg 1) in
      let s = Memory.cstring st.mem (addr 2) in
      let need = String.length s in
      if size > 0 then begin
        let w = min need (size - 1) in
        charge_builtin st w;
        Memory.write_bytes st.mem (addr 0) (String.sub s 0 w ^ "\000")
      end
      else charge_builtin st 0;
      Some (Int64.of_int need)
  | "malloc" ->
      let n = max 1 (as_size (arg 0)) in
      charge_builtin st 0;
      let a = Sutil.Align.align_up st.heap_next ~alignment:16 in
      if a + n > st.heap_limit then Some 0L
      else begin
        st.heap_next <- a + n;
        Some (Int64.of_int a)
      end
  | "free" ->
      charge_builtin st 0;
      None
  | "print_int" ->
      charge_syscall st;
      charge_builtin st 8;
      Buffer.add_string st.output (Int64.to_string (arg 0));
      None
  | "print_char" ->
      charge_syscall st;
      charge_builtin st 1;
      Buffer.add_char st.output (Char.chr (Int64.to_int (arg 0) land 0xff));
      None
  | "print_str" ->
      let s = Memory.cstring st.mem (addr 0) in
      charge_builtin st (String.length s);
      Buffer.add_string st.output s;
      None
  | "print_newline" ->
      charge_syscall st;
      charge_builtin st 1;
      Buffer.add_char st.output '\n';
      None
  | "read_input" ->
      charge_syscall st;
      let max_n = as_size (arg 1) in
      let chunk = st.input st max_n in
      let chunk =
        if String.length chunk > max_n then String.sub chunk 0 max_n else chunk
      in
      charge_builtin st (String.length chunk);
      Memory.write_bytes st.mem (addr 0) chunk;
      Some (Int64.of_int (String.length chunk))
  | "input_byte" ->
      charge_syscall st;
      charge_builtin st 1;
      let chunk = st.input st 1 in
      if String.length chunk = 0 then Some (-1L)
      else Some (Int64.of_int (Char.code chunk.[0]))
  | "exit" -> raise (Exit_program (arg 0))
  | "abort" -> raise (Memory.Fault (Memory.Misc "abort() called"))
  | _ ->
      raise
        (Memory.Fault (Memory.Misc (Printf.sprintf "unknown builtin %s" name)))

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)

(* Label maps of the functions one run has entered, by name: the program
   cannot change during a run, so a map built on a function's first call
   serves all its later ones. *)
type blocks = (string, (string, Ir.Func.block) Hashtbl.t) Hashtbl.t

let blocks_of (blocks : blocks) (f : Ir.Func.t) =
  match Hashtbl.find_opt blocks f.name with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 16 in
      List.iter (fun (b : Ir.Func.block) -> Hashtbl.replace tbl b.label b) f.blocks;
      Hashtbl.replace blocks f.name tbl;
      tbl

let sdiv_check b =
  if Int64.equal b 0L then raise (Memory.Fault (Memory.Misc "division by zero"))

let eval_binop op a b =
  let open Ir.Instr in
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Sdiv ->
      sdiv_check b;
      Int64.div a b
  | Udiv ->
      sdiv_check b;
      Int64.unsigned_div a b
  | Srem ->
      sdiv_check b;
      Int64.rem a b
  | Urem ->
      sdiv_check b;
      Int64.unsigned_rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Lshr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Ashr -> Int64.shift_right a (Int64.to_int b land 63)

let eval_icmp op a b =
  let open Ir.Instr in
  let r =
    match op with
    | Eq -> Int64.equal a b
    | Ne -> not (Int64.equal a b)
    | Slt -> Int64.compare a b < 0
    | Sle -> Int64.compare a b <= 0
    | Sgt -> Int64.compare a b > 0
    | Sge -> Int64.compare a b >= 0
    | Ult -> Int64.unsigned_compare a b < 0
    | Ule -> Int64.unsigned_compare a b <= 0
  in
  if r then 1L else 0L

let rec call_function (st : state) (blocks : blocks) (f : Ir.Func.t)
    (args : int64 list) : int64 option =
  st.call_count <- st.call_count + 1;
  st.depth <- st.depth + 1;
  st.max_depth <- max st.max_depth st.depth;
  charge st Cost.call_overhead;
  let caller = st.cur_func in
  st.cur_func <- f.name;
  (match st.on_event with
  | Some emit -> emit (Ev_call { func = f.name; depth = st.depth; sp = st.sp })
  | None -> ());
  let entry_sp = st.sp in
  let regs = Array.make (max 1 (Ir.Func.reg_count f)) 0L in
  (if List.length args <> List.length f.params then
     raise
       (Memory.Fault
          (Memory.Misc
             (Printf.sprintf "call to %s with %d args, expected %d" f.name
                (List.length args) (List.length f.params)))));
  List.iter2 (fun (r, _) v -> regs.(r) <- v) f.params args;
  let eval = function
    | Ir.Instr.Reg r -> regs.(r)
    | Ir.Instr.Imm i -> i
    | Ir.Instr.Global g -> Int64.of_int (global_addr st g)
    | Ir.Instr.Func_ref fn -> (
        match Hashtbl.find_opt st.func_tokens fn with
        | Some t -> Int64.of_int t
        | None ->
            raise
              (Memory.Fault
                 (Memory.Misc (Printf.sprintf "unknown function reference %s" fn))))
  in
  let do_alloca ty count =
    let elt = Ir.Ty.size ty in
    let n =
      match count with
      | None -> 1
      | Some c ->
          let v = eval c in
          if Int64.compare v 0L < 0 || Int64.compare v 0x10000000L > 0 then
            raise (Memory.Fault (Memory.Misc "VLA length out of range"))
          else Int64.to_int v
    in
    let bytes = elt * n in
    let new_sp =
      Sutil.Align.align_down (st.sp - bytes)
        ~alignment:(max 1 (Ir.Ty.alignment ty))
    in
    if new_sp < st.stack_limit then
      raise (Memory.Fault (Memory.Stack_overflow { sp = st.sp; need = bytes }));
    st.sp <- new_sp;
    st.max_frame_bytes <- max st.max_frame_bytes (entry_sp - st.sp);
    charge st Cost.alloca;
    Int64.of_int new_sp
  in
  let do_call dst callee args =
    let argv = List.map eval args in
    let result =
      match Ir.Prog.find_func st.prog callee with
      | Some callee_f -> call_function st blocks callee_f argv
      | None ->
          if Ir.Prog.is_extern st.prog callee then
            run_builtin st callee (Array.of_list argv)
          else
            raise
              (Memory.Fault
                 (Memory.Misc (Printf.sprintf "call to unknown function %s" callee)))
    in
    match dst with
    | Some d -> regs.(d) <- Option.value ~default:0L result
    | None -> ()
  in
  let exec_instr i =
    st.instr_count <- st.instr_count + 1;
    st.fuel <- st.fuel - 1;
    if st.fuel <= 0 then raise Out_of_fuel;
    match i with
    | Ir.Instr.Alloca { dst; ty; count; name = _ } -> regs.(dst) <- do_alloca ty count
    | Ir.Instr.Load { dst; ty; addr } ->
        let a = Int64.to_int (eval addr) in
        charge st
          (if a >= rodata_base && a < data_base then Cost.load_rodata
           else Cost.load);
        regs.(dst) <- Memory.load st.mem ~width:(Ir.Ty.scalar_width ty) a
    | Ir.Instr.Store { ty; value; addr } ->
        charge st Cost.store;
        Memory.store st.mem ~width:(Ir.Ty.scalar_width ty)
          (Int64.to_int (eval addr))
          (eval value)
    | Ir.Instr.Gep { dst; base; offset; index } ->
        charge st Cost.alu;
        let idx =
          match index with
          | None -> 0L
          | Some (i, scale) -> Int64.mul (eval i) (Int64.of_int scale)
        in
        regs.(dst) <- Int64.add (Int64.add (eval base) (Int64.of_int offset)) idx
    | Ir.Instr.Binop { dst; op; lhs; rhs } ->
        charge st
          (match op with
          | Sdiv | Udiv | Srem | Urem -> Cost.div
          | _ -> Cost.alu);
        regs.(dst) <- eval_binop op (eval lhs) (eval rhs)
    | Ir.Instr.Icmp { dst; op; lhs; rhs } ->
        charge st Cost.alu;
        regs.(dst) <- eval_icmp op (eval lhs) (eval rhs)
    | Ir.Instr.Select { dst; cond; if_true; if_false } ->
        charge st Cost.alu;
        regs.(dst) <- (if Int64.equal (eval cond) 0L then eval if_false else eval if_true)
    | Ir.Instr.Sext { dst; width; value } ->
        charge st Cost.alu;
        regs.(dst) <- Sutil.Bytecodec.sext ~width (eval value)
    | Ir.Instr.Trunc { dst; width; value } ->
        charge st Cost.alu;
        regs.(dst) <- Sutil.Bytecodec.zext ~width (eval value)
    | Ir.Instr.Call { dst; callee; args } -> do_call dst callee args
    | Ir.Instr.Call_ind { dst; callee; args } -> (
        let target = Int64.to_int (eval callee) in
        match Hashtbl.find_opt st.token_funcs target with
        | Some name -> do_call dst name args
        | None ->
            raise
              (Memory.Fault
                 (Memory.Misc
                    (Printf.sprintf "indirect call to non-function address 0x%x" target))))
    | Ir.Instr.Intrinsic { dst; name; args } -> (
        charge st Cost.intrinsic_base;
        match Hashtbl.find_opt st.intrinsics name with
        | Some fn -> (
            let result = fn st (Array.of_list (List.map eval args)) in
            (match st.on_event with
            | Some emit -> emit (Ev_intrinsic { name; result })
            | None -> ());
            match dst with
            | Some d -> regs.(d) <- Option.value ~default:0L result
            | None -> ())
        | None ->
            raise
              (Memory.Fault
                 (Memory.Misc (Printf.sprintf "unregistered intrinsic %s" name))))
  in
  let tbl = blocks_of blocks f in
  let rec run_block (b : Ir.Func.block) =
    List.iter exec_instr b.instrs;
    match b.term with
    | Ir.Instr.Ret v ->
        charge st Cost.branch;
        Option.map eval v
    | Ir.Instr.Br l ->
        charge st Cost.branch;
        run_block (Hashtbl.find tbl l)
    | Ir.Instr.Cond_br { cond; if_true; if_false } ->
        charge st Cost.cond_branch;
        let l = if Int64.equal (eval cond) 0L then if_false else if_true in
        run_block (Hashtbl.find tbl l)
    | Ir.Instr.Unreachable ->
        raise (Memory.Fault (Memory.Misc ("unreachable executed in " ^ f.name)))
  in
  match run_block (Ir.Func.entry f) with
  | result ->
      st.sp <- entry_sp;
      st.depth <- st.depth - 1;
      (match st.on_event with
      | Some emit -> emit (Ev_return { func = f.name; depth = st.depth })
      | None -> ());
      st.cur_func <- caller;
      result
  | exception e ->
      (* unwind bookkeeping but propagate: the run is over, and
         [cur_func] keeps the innermost function for the report *)
      st.depth <- st.depth - 1;
      raise e

let stats_of_state (st : state) =
  {
    cycles = st.cycles;
    instr_count = st.instr_count;
    call_count = st.call_count;
    max_depth = st.max_depth;
    max_frame_bytes = st.max_frame_bytes;
    rss_bytes = Memory.touched_bytes st.mem;
    output = Buffer.contents st.output;
  }

let run ?(fuel = 200_000_000) st =
  st.fuel <- fuel;
  st.cur_func <- "main";
  let outcome =
    match Ir.Prog.find_func st.prog "main" with
    | None -> Fault { fault = Memory.Misc "no entry function main"; func = "-" }
    | Some f -> (
        try
          let r = call_function st (Hashtbl.create 16) f [] in
          Exit (Option.value ~default:0L r)
        with
        | Exit_program code -> Exit code
        | Memory.Fault fault ->
            (match st.on_event with
            | Some emit -> emit (Ev_fault { detail = Memory.fault_to_string fault })
            | None -> ());
            Fault { fault; func = st.cur_func }
        | Detect reason ->
            (match st.on_event with
            | Some emit -> emit (Ev_detected { reason })
            | None -> ());
            Detected { reason; func = st.cur_func }
        | Out_of_fuel -> Fuel_exhausted)
  in
  (outcome, stats_of_state st)
