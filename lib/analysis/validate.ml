module Abi = Smokestack.Abi
module Config = Smokestack.Config
module Harden = Smokestack.Harden
module Pbox = Smokestack.Pbox
module Slots = Smokestack.Slots
module Runtime = Smokestack.Runtime

type rule =
  | Frame_integrity
  | Pbox_soundness
  | Index_hygiene
  | Fid_pairing
  | Elision
  | Layout_leak

let rule_to_string = function
  | Frame_integrity -> "frame-integrity"
  | Pbox_soundness -> "pbox-soundness"
  | Index_hygiene -> "index-hygiene"
  | Fid_pairing -> "fid-pairing"
  | Elision -> "elision"
  | Layout_leak -> "layout-leak"

type violation = {
  rule : rule;
  func : string;
  row : int option;
  detail : string;
}

type adder = rule -> string -> ?row:int -> string -> unit

let violation_to_string v =
  match v.row with
  | Some r ->
      Printf.sprintf "[%s] %s, row %d: %s" (rule_to_string v.rule) v.func r
        v.detail
  | None -> Printf.sprintf "[%s] %s: %s" (rule_to_string v.rule) v.func v.detail

(* ------------------------------------------------------------------ *)
(* Symbolic classification of prologue registers                       *)
(* ------------------------------------------------------------------ *)

(* Every register of an instrumented function is assigned a symbolic
   class by one forward pass in block order (registers are in SSA-like
   single-assignment form per function, so a flow-insensitive map is
   exact).  The classes mirror the instrumentation grammar: the slab
   base, the raw draw, the masked index, the selected row pointer, a
   column pointer / loaded offset / slab slice per canonical column,
   and the FID chain.  [Tainted] poisons anything derived from the
   random index outside the recognized grammar. *)
type sym =
  | Total  (** the [__ss_total] slab base *)
  | Rand  (** result of [ss.rand] *)
  | Index  (** masked/reduced row index *)
  | Row  (** row pointer into [__ss_pbox] *)
  | Col of int  (** column pointer (canonical column) *)
  | Off of int  (** loaded u32 slot offset *)
  | Slice of int  (** slot address: slab base + offset *)
  | FidKey
  | FidVal  (** [fid XOR key], the value the prologue stores *)
  | FidLoad  (** the epilogue's load of the FID slot *)
  | FidCheck  (** [loaded XOR key], what [ss.fid_assert] inspects *)
  | Tainted
  | Opaque

let is_secret = function
  | Rand | Index | Row | Col _ | Off _ | Tainted -> true
  | _ -> false

(* What the classification of a function needs to know about its P-BOX
   binding. *)
type frame_shape = {
  max_total : int;
  fid_col : int option;  (** canonical column of the FID slot *)
  mode : shape_mode;
}

and shape_mode =
  | Sh_exhaustive of {
      byte_offset : int;
      stride : int;
      rows : int;  (** materialized *)
      cols : int;
      canon_of_orig : int array;
    }
  | Sh_dynamic of { dyn_id : int; n_orig : int }

let shape_of (pbox : Pbox.t) (config : Config.t) (b : Pbox.binding) =
  let max_total = Pbox.max_total pbox b in
  match b.mode with
  | Pbox.Exhaustive { entry_index; canon_of_orig; _ } ->
      let e = pbox.entries.(entry_index) in
      {
        max_total;
        fid_col =
          (if config.fid_checks then Some canon_of_orig.(b.n_orig - 1)
           else None);
        mode =
          Sh_exhaustive
            {
              byte_offset = e.byte_offset;
              stride = Pbox.row_stride e;
              rows = e.rows_materialized;
              cols = Array.length e.canon_meta;
              canon_of_orig;
            };
      }
  | Pbox.Dynamic { dyn_id } ->
      {
        max_total;
        fid_col = (if config.fid_checks then Some (b.n_orig - 1) else None);
        mode = Sh_dynamic { dyn_id; n_orig = b.n_orig };
      }

(* Walk one instrumented function, classifying registers and recording
   violations of frame integrity, index hygiene and FID pairing. *)
let check_instrumented (add : adder) (config : Config.t)
    (shape : frame_shape) (f : Ir.Func.t) =
  let fail rule ?row detail = add rule f.name ?row detail in
  let cls : (Ir.Instr.reg, sym) Hashtbl.t = Hashtbl.create 64 in
  let get = function
    | Ir.Instr.Reg r -> Option.value ~default:Opaque (Hashtbl.find_opt cls r)
    | _ -> Opaque
  in
  let set r s = Hashtbl.replace cls r s in
  let fid = Abi.fid_const f.name in
  let expected_ty = Ir.Ty.Array (Ir.Ty.I8, shape.max_total) in
  let total_seen = ref false in
  let dyn_called = ref false in
  let slice_cols = ref [] in
  let fid_store_block = ref None in
  (* ret block label -> does it carry a well-formed fid assert? *)
  let asserts_ok : (string, bool) Hashtbl.t = Hashtbl.create 4 in
  let canon_cols =
    match shape.mode with
    | Sh_exhaustive { canon_of_orig; _ } -> Array.to_list canon_of_orig
    | Sh_dynamic { n_orig; _ } -> List.init n_orig Fun.id
  in
  let hygiene_use what op =
    if is_secret (get op) then
      fail Index_hygiene
        (Printf.sprintf "permutation index/offset flows into %s" what)
  in
  let instr (b : Ir.Func.block) (i : Ir.Instr.t) =
    match i with
    | Ir.Instr.Alloca { dst; ty; count = None; name } ->
        if name = "__ss_total" then begin
          if !total_seen then
            fail Frame_integrity "duplicate __ss_total slab alloca"
          else begin
            total_seen := true;
            if ty <> expected_ty then
              fail Frame_integrity
                (Printf.sprintf
                   "__ss_total slab sized %d bytes, P-BOX requires %d"
                   (Ir.Ty.size ty) shape.max_total)
          end;
          set dst Total
        end
        else
          fail Frame_integrity
            (Printf.sprintf
               "raw fixed-size alloca %S survives outside the __ss_total slab"
               name)
    | Ir.Instr.Alloca { count = Some _; _ } -> ()
    | Ir.Instr.Intrinsic { dst; name; args } ->
        if name = Abi.intr_rand then
          Option.iter (fun d -> set d Rand) dst
        else if name = Abi.intr_fid_key then
          Option.iter (fun d -> set d FidKey) dst
        else if name = Abi.intr_layout_dynamic then begin
          (match shape.mode with
          | Sh_dynamic { dyn_id; _ } -> (
              dyn_called := true;
              match args with
              | [ Ir.Instr.Imm id; base ]
                when Int64.to_int id = dyn_id && get base = Total ->
                  ()
              | _ ->
                  fail Frame_integrity
                    "malformed ss.layout_dynamic call (wrong dyn id or base)")
          | Sh_exhaustive _ ->
              fail Frame_integrity
                "ss.layout_dynamic in a function with a materialized table")
        end
        else if name = Abi.intr_fid_assert then begin
          match args with
          | [ chk; Ir.Instr.Imm expect ] when expect = fid && get chk = FidCheck
            ->
              Hashtbl.replace asserts_ok b.label true
          | _ ->
              Hashtbl.replace asserts_ok b.label false;
              fail Fid_pairing "malformed ss.fid_assert (wrong value or fid)"
        end
        else List.iter (hygiene_use ("intrinsic " ^ name)) args
    | Ir.Instr.Binop { dst; op; lhs; rhs } -> (
        let l = get lhs and r = get rhs in
        match (l, op, rhs) with
        | Rand, op, Ir.Instr.Imm imm -> (
            match shape.mode with
            | Sh_exhaustive { rows; _ }
              when (config.pow2_pbox && op = Ir.Instr.And
                    && imm = Int64.of_int (rows - 1))
                   || ((not config.pow2_pbox)
                       && op = Ir.Instr.Urem
                       && imm = Int64.of_int rows) ->
                set dst Index
            | _ ->
                fail Frame_integrity
                  "malformed index mask (wrong operator or row count)";
                set dst Tainted)
        | FidLoad, Ir.Instr.Xor, _ when r = FidKey -> set dst FidCheck
        | FidKey, Ir.Instr.Xor, _ when r = FidLoad -> set dst FidCheck
        | _, Ir.Instr.Xor, _
          when (lhs = Ir.Instr.Imm fid && r = FidKey)
               || (l = FidKey && rhs = Ir.Instr.Imm fid) ->
            set dst FidVal
        | _ ->
            if is_secret l || is_secret r then set dst Tainted
            else set dst Opaque)
    | Ir.Instr.Gep { dst; base; offset; index } -> (
        match (base, get base) with
        | Ir.Instr.Global g, _ when g = Abi.pbox_global -> (
            match shape.mode with
            | Sh_exhaustive { byte_offset; stride; _ } -> (
                match index with
                | Some (idx, scale)
                  when offset = byte_offset && scale = stride
                       && get idx = Index ->
                    set dst Row
                | _ ->
                    fail Frame_integrity
                      "malformed P-BOX row access (wrong table offset, \
                       stride, or index)";
                    set dst Tainted)
            | Sh_dynamic _ ->
                fail Frame_integrity
                  "P-BOX table access in a dynamically-laid-out function";
                set dst Tainted)
        | _, Row -> (
            match (index, shape.mode) with
            | None, Sh_exhaustive { cols; _ }
              when offset mod 4 = 0
                   && offset / 4 < cols
                   && List.mem (offset / 4) canon_cols ->
                set dst (Col (offset / 4))
            | _ ->
                fail Frame_integrity
                  (Printf.sprintf
                     "row access at byte %d is not one of the function's \
                      columns"
                     offset);
                set dst Tainted)
        | _, Total -> (
            match (index, shape.mode) with
            | Some (off_op, 1), _ when offset = 0 -> (
                match get off_op with
                | Off c -> set dst (Slice c)
                | _ ->
                    fail Frame_integrity
                      "slab indexed by a non-P-BOX offset";
                    set dst Tainted)
            | None, Sh_dynamic { n_orig; _ }
              when offset mod 4 = 0 && offset / 4 < n_orig ->
                set dst (Col (offset / 4))
            | _ ->
                fail Frame_integrity
                  "raw access to the __ss_total slab (fixed offset into \
                   permuted memory)";
                set dst Tainted)
        | _, (Col _ | Off _ | Index | Rand | Tainted) -> set dst Tainted
        | _ -> set dst Opaque)
    | Ir.Instr.Load { dst; ty; addr } -> (
        match get addr with
        | Col c ->
            if ty = Ir.Ty.I32 then set dst (Off c)
            else begin
              fail Frame_integrity "offset load is not a u32";
              set dst Tainted
            end
        | Slice c when shape.fid_col = Some c && ty = Ir.Ty.I64 ->
            set dst FidLoad
        | Total | Row ->
            fail Frame_integrity "load through the raw slab or row base"
        | s when is_secret s ->
            fail Index_hygiene
              "permutation index/offset flows into a load address"
        | _ -> set dst Opaque)
    | Ir.Instr.Store { ty; value; addr } -> (
        hygiene_use "a stored value" value;
        (match get value with
        | Total -> fail Frame_integrity "slab base address is stored to memory"
        | FidKey -> fail Fid_pairing "raw FID key is stored to memory"
        | _ -> ());
        match get addr with
        | Row | Col _ -> fail Frame_integrity "store into the read-only P-BOX"
        | Total -> fail Frame_integrity "store through the raw slab base"
        | s when is_secret s ->
            fail Index_hygiene
              "permutation index/offset flows into a store address"
        | Slice c
          when shape.fid_col = Some c && get value = FidVal && ty = Ir.Ty.I64
          ->
            if !fid_store_block = None then fid_store_block := Some b.label
        | _ ->
            if get value = FidVal then
              fail Fid_pairing "FID value stored outside the FID slot")
    | Ir.Instr.Call { dst; args; _ } ->
        List.iter (hygiene_use "a call argument") args;
        List.iter
          (fun a ->
            if get a = Total then
              fail Frame_integrity "slab base address passed to a call";
            if get a = FidKey then
              fail Fid_pairing "raw FID key passed to a call")
          args;
        Option.iter (fun d -> set d Opaque) dst
    | Ir.Instr.Call_ind { dst; callee; args } ->
        hygiene_use "an indirect-call target" callee;
        List.iter (hygiene_use "a call argument") args;
        List.iter
          (fun a ->
            if get a = Total then
              fail Frame_integrity "slab base address passed to a call")
          args;
        Option.iter (fun d -> set d Opaque) dst
    | Ir.Instr.Icmp { dst; lhs; rhs; _ } ->
        if is_secret (get lhs) || is_secret (get rhs) then set dst Tainted
        else set dst Opaque
    | Ir.Instr.Select { dst; cond; if_true; if_false } ->
        if
          is_secret (get cond)
          || is_secret (get if_true)
          || is_secret (get if_false)
        then set dst Tainted
        else set dst Opaque
    | Ir.Instr.Sext { dst; value; _ } | Ir.Instr.Trunc { dst; value; _ } ->
        if is_secret (get value) then set dst Tainted else set dst Opaque
  in
  List.iter
    (fun (b : Ir.Func.block) ->
      List.iter
        (fun i ->
          (* Record slice classifications as they appear. *)
          instr b i;
          match i with
          | Ir.Instr.Gep { dst; _ } -> (
              match Hashtbl.find_opt cls dst with
              | Some (Slice c) -> slice_cols := c :: !slice_cols
              | _ -> ())
          | _ -> ())
        b.instrs;
      match b.term with
      | Ir.Instr.Ret (Some op) ->
          if is_secret (get op) then
            fail Index_hygiene "permutation index/offset is returned"
      | _ -> ())
    f.blocks;
  (* Frame shape post-conditions. *)
  if not !total_seen then
    fail Frame_integrity "no __ss_total slab alloca in the entry block";
  (match shape.mode with
  | Sh_dynamic _ ->
      if not !dyn_called then
        fail Frame_integrity "dynamic binding but no ss.layout_dynamic call"
  | Sh_exhaustive _ -> ());
  List.iteri
    (fun i c ->
      if not (List.mem c !slice_cols) then
        fail Frame_integrity
          (Printf.sprintf "slot %d (canonical column %d) is never sliced \
                           from the slab"
             i c))
    canon_cols;
  (* FID pairing: the prologue store must dominate every return, and
     every return block must carry a well-formed assert. *)
  match shape.fid_col with
  | None -> ()
  | Some _ -> (
      let cfg = Ir.Cfg.of_func f in
      let idom = Ir.Cfg.idom cfg in
      let ret_blocks =
        Array.to_list cfg.blocks
        |> List.filter (fun (b : Ir.Func.block) ->
               match b.term with Ir.Instr.Ret _ -> true | _ -> false)
      in
      match !fid_store_block with
      | None ->
          if ret_blocks <> [] then
            fail Fid_pairing "no prologue store of the XORed FID"
      | Some store_label ->
          let store_idx = Ir.Cfg.index_of cfg store_label in
          List.iter
            (fun (b : Ir.Func.block) ->
              let bi = Ir.Cfg.index_of cfg b.label in
              if not (Ir.Cfg.dominates ~idom store_idx bi) then
                fail Fid_pairing
                  (Printf.sprintf
                     "FID store in %s does not dominate the return in %s"
                     store_label b.label);
              if Hashtbl.find_opt asserts_ok b.label <> Some true then
                fail Fid_pairing
                  (Printf.sprintf "return block %s lacks a well-formed \
                                   ss.fid_assert"
                     b.label))
            ret_blocks)

(* ------------------------------------------------------------------ *)
(* P-BOX data checks                                                   *)
(* ------------------------------------------------------------------ *)

let decode_u32 blob off =
  Char.code blob.[off]
  lor (Char.code blob.[off + 1] lsl 8)
  lor (Char.code blob.[off + 2] lsl 16)
  lor (Char.code blob.[off + 3] lsl 24)

let check_row (add : adder) ~func ~row ~max_total (metas : (int * int) array)
    (offsets : int array) =
  let n = Array.length metas in
  Array.iteri
    (fun c o ->
      let size, align = metas.(c) in
      if o < 0 || o + size > max_total then
        add Pbox_soundness func ~row
          (Printf.sprintf "column %d at offset %d overruns the %d-byte slab"
             c o max_total)
      else if o mod align <> 0 then
        add Pbox_soundness func ~row
          (Printf.sprintf "column %d at offset %d violates alignment %d" c o
             align))
    offsets;
  (* Overlap / duplicate detection over the sorted placements. *)
  let placed = Array.init n (fun c -> (offsets.(c), fst metas.(c), c)) in
  Array.sort compare placed;
  for i = 0 to n - 2 do
    let o1, s1, c1 = placed.(i) and o2, _, c2 = placed.(i + 1) in
    if o1 = o2 then
      add Pbox_soundness func ~row
        (Printf.sprintf "columns %d and %d share offset %d (duplicate row \
                         entry)"
           c1 c2 o1)
    else if o1 + s1 > o2 then
      add Pbox_soundness func ~row
        (Printf.sprintf "columns %d and %d overlap ([%d,%d) vs [%d,...))" c1
           c2 o1 (o1 + s1) o2)
  done

let check_pbox (add : adder) (t : Harden.t) =
  let pbox = t.pbox in
  let blob = pbox.blob in
  (* The embedded rodata global must carry exactly the table bytes. *)
  (match Ir.Prog.find_global t.prog Abi.pbox_global with
  | Some g ->
      if g.gwritable then
        add Pbox_soundness Abi.pbox_global "P-BOX global is writable";
      let n = String.length blob in
      if
        String.length g.ginit < n
        || String.sub g.ginit 0 n <> blob
      then
        add Pbox_soundness Abi.pbox_global
          "embedded P-BOX global diverges from the built tables"
  | None ->
      if Array.exists (fun (e : Pbox.entry) -> e.users <> []) pbox.entries then
        add Pbox_soundness Abi.pbox_global "no embedded P-BOX global");
  Array.iter
    (fun (e : Pbox.entry) ->
      match e.users with
      | [] -> () (* elided table: never read, never serialized *)
      | users ->
          let func = List.hd (List.sort compare users) in
          let stride = Pbox.row_stride e in
          let last = e.byte_offset + (e.rows_materialized * stride) in
          if last > String.length blob then
            add Pbox_soundness func
              (Printf.sprintf "table rows [%d..%d) overrun the %d-byte blob"
                 e.byte_offset last (String.length blob))
          else
            for row = 0 to e.rows_materialized - 1 do
              let base = e.byte_offset + (row * stride) in
              let offsets =
                Array.init (Array.length e.canon_meta) (fun c ->
                    decode_u32 blob (base + (4 * c)))
              in
              check_row add ~func ~row ~max_total:e.table.max_total
                e.canon_meta offsets
            done)
    pbox.entries;
  (* Per-function bindings: the original-to-canonical map must be a
     partial injection into matching columns. *)
  Hashtbl.iter
    (fun fname (b : Pbox.binding) ->
      match b.mode with
      | Pbox.Exhaustive { entry_index; canon_of_orig; _ } ->
          let e = pbox.entries.(entry_index) in
          let cols = Array.length e.canon_meta in
          let seen = Hashtbl.create 8 in
          Array.iter
            (fun c ->
              if c < 0 || c >= cols then
                add Pbox_soundness fname
                  (Printf.sprintf "binding maps a slot to missing column %d" c)
              else if Hashtbl.mem seen c then
                add Pbox_soundness fname
                  (Printf.sprintf "binding maps two slots to column %d" c)
              else Hashtbl.add seen c ())
            canon_of_orig
      | Pbox.Dynamic { dyn_id } ->
          (* Sample the runtime decoder: every drawn layout must place
             the slots past the scratch region, aligned, disjoint, and
             within the reserved worst case. *)
          let dyn = pbox.dyns.(dyn_id) in
          let rng = Sutil.Simrng.create ~seed:0x5eedL in
          for row = 0 to 63 do
            let draw = Sutil.Simrng.next_u64 rng in
            let offsets = Runtime.dynamic_offsets_for_draw dyn draw in
            Array.iteri
              (fun c o ->
                if o < dyn.scratch_bytes then
                  add Pbox_soundness fname ~row
                    (Printf.sprintf
                       "dynamic layout places slot %d at %d, inside the \
                        %d-byte scratch region"
                       c o dyn.scratch_bytes))
              offsets;
            check_row add ~func:fname ~row ~max_total:dyn.dyn_max_total
              dyn.metas offsets
          done)
    pbox.bindings

(* ------------------------------------------------------------------ *)
(* Elision obligations                                                 *)
(* ------------------------------------------------------------------ *)

let alloca_profile (f : Ir.Func.t) =
  List.sort compare
    (List.filter_map
       (fun (_, ty, count, name) ->
         (* Ignore the draw-preservation intrinsic's absence of allocas;
            VLA pads only appear under full hardening. *)
         if name = "__ss_vla_pad" then None else Some (name, ty, count = None))
       (Ir.Func.allocas f))

let check_elision (add : adder) ?original (t : Harden.t) =
  if t.elided = [] then ()
  else
    match original with
    | None ->
        add Elision "<program>"
          "cannot certify elisions without the original program"
    | Some (orig : Ir.Prog.t) ->
        let analyses = Funcan.analyze orig in
        let pairs = Dop.enumerate orig analyses in
        List.iter
          (fun name ->
            let fail detail = add Elision name detail in
            match
              ( Ir.Prog.find_func orig name,
                Ir.Prog.find_func t.prog name )
            with
            | None, _ | _, None ->
                fail "elided function does not exist in the program"
            | Some fo, Some fh ->
                let slots = Slots.discover fo in
                if slots.vla_count > 0 then
                  fail "elided function has a VLA (pad draws cannot be \
                        preserved)";
                (match
                   List.find_opt (fun (a : Funcan.t) -> a.fname = name)
                     analyses
                 with
                | None -> fail "no analysis for elided function"
                | Some a ->
                    List.iter
                      (fun (s : Funcan.slot) ->
                        List.iter
                          (fun r ->
                            fail
                              (Printf.sprintf
                                 "slot %s is not provably safe: %s" s.name
                                 (Funcan.reason_to_string r)))
                          s.overflow)
                      a.slots);
                List.iter
                  (fun (p : Dop.pair) ->
                    if p.buf_func = name then
                      fail
                        (Printf.sprintf
                           "elided function is the buffer of a %s DOP pair"
                           (Dop.kind_to_string p.kind));
                    if p.victim_func = name then
                      fail
                        (Printf.sprintf
                           "elided function holds the victim of a %s DOP \
                            pair"
                           (Dop.kind_to_string p.kind)))
                  pairs;
                if Ir.Func.has_attr fh Abi.smokestack_attr then
                  fail "elided function carries the full-hardening attribute";
                if Option.is_some (Pbox.binding t.pbox name) then
                  fail "elided function still has a P-BOX binding";
                let metas =
                  Smokestack.Instrument.effective_metas t.config slots
                in
                if Array.length metas > 0 then begin
                  if not (Ir.Func.has_attr fh Abi.smokestack_elided_attr) then
                    fail "elided function lacks the elision attribute";
                  (match (Ir.Func.entry fh).instrs with
                  | Ir.Instr.Intrinsic { name = n; _ } :: _
                    when n = Abi.intr_rand ->
                      ()
                  | _ ->
                      fail
                        "elision is not draw-preserving (no leading ss.rand \
                         draw)");
                  if alloca_profile fo <> alloca_profile fh then
                    fail "elision changed the function's allocas"
                end)
          t.elided

(* ------------------------------------------------------------------ *)
(* Whole-program check                                                 *)
(* ------------------------------------------------------------------ *)

let check ?original (t : Harden.t) =
  let violations = ref [] in
  let add rule func ?row detail =
    violations := { rule; func; row; detail } :: !violations
  in
  check_pbox add t;
  let excluded n = List.mem n t.config.exclude in
  List.iter
    (fun (f : Ir.Func.t) ->
      let hardened = Ir.Func.has_attr f Abi.smokestack_attr in
      let elided_attr = Ir.Func.has_attr f Abi.smokestack_elided_attr in
      if hardened && elided_attr then
        add Frame_integrity f.name
          "function is both fully hardened and elided";
      if excluded f.name then begin
        if hardened || elided_attr then
          add Frame_integrity f.name "excluded function was instrumented"
      end
      else if elided_attr then begin
        if not (List.mem f.name t.elided) then
          add Elision f.name
            "carries the elision attribute but is not in the elision list"
      end
      else if hardened then begin
        match Pbox.binding t.pbox f.name with
        | None ->
            add Frame_integrity f.name "hardened function has no P-BOX binding"
        | Some b -> check_instrumented add t.config (shape_of t.pbox t.config b) f
      end
      else begin
        (* Untouched function: it must genuinely have nothing to
           permute.  (VLA-only functions without FID checks are padded
           but carry no attribute; their lack of static slots is
           exactly what this checks.) *)
        let slots = Slots.discover f in
        if slots.static_slots <> [] then
          add Frame_integrity f.name
            (Printf.sprintf "%d static slot(s) escaped hardening"
               (List.length slots.static_slots))
      end)
    t.prog.funcs;
  check_elision add ?original t;
  List.rev !violations

let result ?original t =
  match check ?original t with
  | [] -> Ok ()
  | vs -> Error (String.concat "\n" (List.map violation_to_string vs))

(* Advisory lint, not a hardening post-condition: a program can be a
   perfectly well-formed Smokestack build and still print one of its
   slice addresses.  Index hygiene already forbids the *instrumented*
   secrets (draw, row pointer, loaded offsets) from flowing into stores
   or calls; this rule additionally catches application-level flows —
   address-of results, comparison oracles, interprocedural summaries —
   via the {!Leakan} information-flow analysis, and so is only offered
   through [check_leaks]/[smokestackc lint --leaks]. *)
let check_leaks (t : Harden.t) =
  let lk = Leakan.analyze ~hardened:t t.prog in
  List.map
    (fun (l : Leakan.leak) ->
      {
        rule = Layout_leak;
        func = l.func;
        row = None;
        detail =
          Printf.sprintf "%s of %s:%s reaches %s (%.2f bits)"
            (Leakan.channel_to_string l.channel)
            l.source_func
            (Leakan.source_to_string l.source)
            (Leakan.sink_to_string l.sink)
            l.bits;
      })
    lk.leaks

(* ------------------------------------------------------------------ *)
(* The elision oracle                                                  *)
(* ------------------------------------------------------------------ *)

let elidable (prog : Ir.Prog.t) =
  let analyses = Funcan.analyze prog in
  let pairs = Dop.enumerate prog analyses in
  let in_pair n =
    List.exists
      (fun (p : Dop.pair) -> p.buf_func = n || p.victim_func = n)
      pairs
  in
  List.filter_map
    (fun (a : Funcan.t) ->
      match Ir.Prog.find_func prog a.fname with
      | None -> None
      | Some f ->
          let slots = Slots.discover f in
          if
            slots.vla_count = 0
            && slots.static_slots <> []
            && a.slots <> []
            && List.for_all (fun (s : Funcan.slot) -> s.overflow = []) a.slots
            && not (in_pair a.fname)
          then Some a.fname
          else None)
    analyses

let install () =
  Harden.set_validator (fun ~original t -> result ~original t);
  Harden.set_elision_oracle elidable

(* ------------------------------------------------------------------ *)
(* Seeded IR mutations (validator self-test)                           *)
(* ------------------------------------------------------------------ *)

type mutation =
  | Raw_alloca
  | Overlap_row
  | Dup_row_entry
  | Swap_row_entries
  | Spill_index
  | Drop_fid_assert

let all_mutations =
  [
    Raw_alloca;
    Overlap_row;
    Dup_row_entry;
    Swap_row_entries;
    Spill_index;
    Drop_fid_assert;
  ]

let mutation_to_string = function
  | Raw_alloca -> "raw-alloca"
  | Overlap_row -> "overlap-row"
  | Dup_row_entry -> "dup-row-entry"
  | Swap_row_entries -> "swap-row-entries"
  | Spill_index -> "spill-index"
  | Drop_fid_assert -> "drop-fid-assert"

let mutation_of_string = function
  | "raw-alloca" -> Some Raw_alloca
  | "overlap-row" -> Some Overlap_row
  | "dup-row-entry" -> Some Dup_row_entry
  | "swap-row-entries" -> Some Swap_row_entries
  | "spill-index" -> Some Spill_index
  | "drop-fid-assert" -> Some Drop_fid_assert
  | _ -> None

let expected_rule = function
  | Raw_alloca -> Frame_integrity
  | Overlap_row | Dup_row_entry | Swap_row_entries -> Pbox_soundness
  | Spill_index -> Index_hygiene
  | Drop_fid_assert -> Fid_pairing

let pick rng l =
  match l with
  | [] -> None
  | l -> Some (List.nth l (Sutil.Simrng.int rng ~bound:(List.length l)))

let instrumented (t : Harden.t) =
  List.filter
    (fun (f : Ir.Func.t) -> Ir.Func.has_attr f Abi.smokestack_attr)
    t.prog.funcs

(* Replace the P-BOX blob consistently in both the table structure and
   the embedded global, modelling a generator bug rather than a rodata
   tamper (which the threat model rules out anyway). *)
let with_blob (t : Harden.t) blob =
  let prog = Ir.Prog.copy t.prog in
  prog.globals <-
    List.map
      (fun (g : Ir.Prog.global) ->
        if g.gname = Abi.pbox_global then { g with ginit = blob } else g)
      prog.globals;
  { t with prog; pbox = { t.pbox with blob } }

let set_u32 bytes off v =
  Bytes.set bytes off (Char.chr (v land 0xff));
  Bytes.set bytes (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set bytes (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set bytes (off + 3) (Char.chr ((v lsr 24) land 0xff))

let used_entries (t : Harden.t) ~min_cols =
  Array.to_list t.pbox.entries
  |> List.filter (fun (e : Pbox.entry) ->
         e.users <> [] && Array.length e.canon_meta >= min_cols)

let row_cell (e : Pbox.entry) ~row ~col =
  e.byte_offset + (row * Pbox.row_stride e) + (4 * col)

let mutate ~seed mutation (t : Harden.t) =
  let rng = Sutil.Simrng.create ~seed in
  match mutation with
  | Raw_alloca -> (
      match pick rng (instrumented t) with
      | None -> None
      | Some f0 ->
          let prog = Ir.Prog.copy t.prog in
          let f = Option.get (Ir.Prog.find_func prog f0.name) in
          let entry = Ir.Func.entry f in
          entry.instrs <-
            entry.instrs
            @ [
                Ir.Instr.Alloca
                  {
                    dst = Ir.Func.fresh_reg f;
                    ty = Ir.Ty.Array (Ir.Ty.I8, 32);
                    count = None;
                    name = "__mut_raw";
                  };
              ];
          Some
            ( { t with prog },
              Printf.sprintf "raw 32-byte alloca appended to %s" f.name ))
  | Dup_row_entry -> (
      match pick rng (used_entries t ~min_cols:2) with
      | None -> None
      | Some e ->
          let cols = Array.length e.canon_meta in
          let row = Sutil.Simrng.int rng ~bound:e.rows_materialized in
          let c1 = Sutil.Simrng.int rng ~bound:cols in
          let c2 = (c1 + 1 + Sutil.Simrng.int rng ~bound:(cols - 1)) mod cols in
          let b = Bytes.of_string t.pbox.blob in
          set_u32 b (row_cell e ~row ~col:c2)
            (decode_u32 t.pbox.blob (row_cell e ~row ~col:c1));
          Some
            ( with_blob t (Bytes.to_string b),
              Printf.sprintf
                "row %d: column %d duplicated into column %d (table at byte \
                 %d)"
                row c1 c2 e.byte_offset ))
  | Overlap_row ->
      (* Deterministic scan for a re-placement that keeps alignment and
         extent but collides two slots at distinct offsets. *)
      let found = ref None in
      List.iter
        (fun (e : Pbox.entry) ->
          if !found = None then
            for row = 0 to e.rows_materialized - 1 do
              let offs =
                Array.init (Array.length e.canon_meta) (fun c ->
                    decode_u32 t.pbox.blob (row_cell e ~row ~col:c))
              in
              Array.iteri
                (fun c1 (s1, _) ->
                  Array.iteri
                    (fun c2 (s2, a2) ->
                      if c1 <> c2 && !found = None then begin
                        let v = ref 0 in
                        while
                          !found = None && !v + s2 <= e.table.max_total
                        do
                          let o1 = offs.(c1) in
                          if
                            !v <> o1
                            && (not (Array.exists (( = ) !v) offs))
                            && !v < o1 + s1
                            && !v + s2 > o1
                          then found := Some (e, row, c2, !v)
                          else v := !v + a2
                        done
                      end)
                    e.canon_meta)
                e.canon_meta
            done)
        (used_entries t ~min_cols:2);
      Option.map
        (fun ((e : Pbox.entry), row, c2, v) ->
          let b = Bytes.of_string t.pbox.blob in
          set_u32 b (row_cell e ~row ~col:c2) v;
          ( with_blob t (Bytes.to_string b),
            Printf.sprintf
              "row %d: column %d moved to offset %d, overlapping a \
               neighbour (table at byte %d)"
              row c2 v e.byte_offset ))
        !found
  | Swap_row_entries ->
      (* Swap two columns with different (size, alignment) such that
         the swapped row is provably invalid. *)
      let bad_after_swap (e : Pbox.entry) offs c1 c2 =
        let offs = Array.copy offs in
        let tmp = offs.(c1) in
        offs.(c1) <- offs.(c2);
        offs.(c2) <- tmp;
        let n = Array.length offs in
        let misaligned_or_out =
          Array.exists
            (fun c ->
              let size, align = e.canon_meta.(c) in
              offs.(c) mod align <> 0 || offs.(c) + size > e.table.max_total)
            (Array.init n Fun.id)
        in
        let placed = Array.init n (fun c -> (offs.(c), fst e.canon_meta.(c))) in
        Array.sort compare placed;
        let overlap = ref false in
        for i = 0 to n - 2 do
          let o1, s1 = placed.(i) and o2, _ = placed.(i + 1) in
          if o1 + s1 > o2 then overlap := true
        done;
        misaligned_or_out || !overlap
      in
      let found = ref None in
      List.iter
        (fun (e : Pbox.entry) ->
          if !found = None then
            for row = 0 to e.rows_materialized - 1 do
              if !found = None then begin
                let offs =
                  Array.init (Array.length e.canon_meta) (fun c ->
                      decode_u32 t.pbox.blob (row_cell e ~row ~col:c))
                in
                let n = Array.length offs in
                for c1 = 0 to n - 2 do
                  for c2 = c1 + 1 to n - 1 do
                    if
                      !found = None
                      && e.canon_meta.(c1) <> e.canon_meta.(c2)
                      && offs.(c1) <> offs.(c2)
                      && bad_after_swap e offs c1 c2
                    then found := Some (e, row, c1, c2, offs)
                  done
                done
              end
            done)
        (used_entries t ~min_cols:2);
      Option.map
        (fun ((e : Pbox.entry), row, c1, c2, offs) ->
          let b = Bytes.of_string t.pbox.blob in
          set_u32 b (row_cell e ~row ~col:c1) offs.(c2);
          set_u32 b (row_cell e ~row ~col:c2) offs.(c1);
          ( with_blob t (Bytes.to_string b),
            Printf.sprintf
              "row %d: columns %d and %d swapped (table at byte %d)" row c1
              c2 e.byte_offset ))
        !found
  | Spill_index -> (
      match pick rng (instrumented t) with
      | None -> None
      | Some f0 ->
          let prog = Ir.Prog.copy t.prog in
          let f = Option.get (Ir.Prog.find_func prog f0.name) in
          let entry = Ir.Func.entry f in
          let rand_reg = ref None and idx_reg = ref None in
          let off_reg = ref None in
          let total_reg = ref None and spilled = ref None in
          let out = ref [] in
          List.iter
            (fun (i : Ir.Instr.t) ->
              out := i :: !out;
              (match i with
              | Ir.Instr.Alloca { dst; count = None; name = "__ss_total"; _ }
                ->
                  total_reg := Some dst
              | Ir.Instr.Intrinsic { dst = Some d; name; _ }
                when name = Abi.intr_rand ->
                  rand_reg := Some d
              | Ir.Instr.Binop { dst; lhs = Ir.Instr.Reg l; _ }
                when Some l = !rand_reg ->
                  idx_reg := Some dst
              | Ir.Instr.Load { dst; ty = Ir.Ty.I32; _ } when !off_reg = None
                ->
                  (* First u32 load of the prologue: slot 0's P-BOX
                     offset (both binding modes). *)
                  off_reg := Some dst
              | Ir.Instr.Gep
                  {
                    dst;
                    base = Ir.Instr.Reg b;
                    offset = 0;
                    index = Some (_, 1);
                  }
                when Some b = !total_reg && !spilled = None -> (
                  (* Spill right after the first slot address exists:
                     the masked index when the function has one, else
                     the loaded offset (dynamic bindings). *)
                  match (if !idx_reg <> None then !idx_reg else !off_reg) with
                  | Some secret ->
                      spilled := Some secret;
                      out :=
                        Ir.Instr.Store
                          {
                            ty = Ir.Ty.I64;
                            value = Ir.Instr.Reg secret;
                            addr = Ir.Instr.Reg dst;
                          }
                        :: !out
                  | None -> ())
              | _ -> ()))
            entry.instrs;
          if !spilled = None then None
          else begin
            entry.instrs <- List.rev !out;
            Some
              ( { t with prog },
                Printf.sprintf
                  "permutation %s of %s spilled into its first stack slot"
                  (if !idx_reg <> None then "index" else "offset")
                  f.name )
          end)
  | Drop_fid_assert -> (
      let has_assert (f : Ir.Func.t) =
        List.exists
          (fun (b : Ir.Func.block) ->
            List.exists
              (function
                | Ir.Instr.Intrinsic { name; _ } ->
                    name = Abi.intr_fid_assert
                | _ -> false)
              b.instrs)
          f.blocks
      in
      match pick rng (List.filter has_assert (instrumented t)) with
      | None -> None
      | Some f0 ->
          let prog = Ir.Prog.copy t.prog in
          let f = Option.get (Ir.Prog.find_func prog f0.name) in
          let blocks =
            List.filter
              (fun (b : Ir.Func.block) ->
                List.exists
                  (function
                    | Ir.Instr.Intrinsic { name; _ } ->
                        name = Abi.intr_fid_assert
                    | _ -> false)
                  b.instrs)
              f.blocks
          in
          let b = Option.get (pick rng blocks) in
          b.instrs <-
            List.filter
              (function
                | Ir.Instr.Intrinsic { name; _ } ->
                    name <> Abi.intr_fid_assert
                | _ -> true)
              b.instrs;
          Some
            ( { t with prog },
              Printf.sprintf "ss.fid_assert removed from %s block %s" f.name
                b.label ))

(* ------------------------------------------------------------------ *)
(* JSON rendering (CLI / CI)                                           *)
(* ------------------------------------------------------------------ *)

let violation_to_json v =
  Sutil.Json.(
    Obj
      [
        ("rule", String (rule_to_string v.rule));
        ("func", String v.func);
        ("row", match v.row with Some r -> Int r | None -> Null);
        ("detail", String v.detail);
      ])

let report_json ?leaks ?(extra = []) ~name violations =
  let vlist vs = Sutil.Json.List (List.map violation_to_json vs) in
  Sutil.Json.Obj
    ([
       ("program", Sutil.Json.String name);
       ( "clean",
         Sutil.Json.Bool
           (violations = [] && Option.value ~default:[] leaks = []) );
       ("violations", vlist violations);
     ]
    @ (match leaks with None -> [] | Some ls -> [ ("leaks", vlist ls) ])
    @ extra)
