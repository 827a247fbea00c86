type model = {
  prog : Ir.Prog.t;
  funcans : Analysis.Funcan.t list;
  pairs : Analysis.Dop.pair list;
  gadgets : Gadget.t list;
  flips : (string * int64 * int64) list;
  probes_run : int;
  learned : Gadget.t list;
}

(* ------------------------------------------------------------------ *)
(* Frame knowledge helpers *)

let slots_of (a : Analysis.Funcan.t) =
  List.map
    (fun (s : Analysis.Funcan.slot) ->
      (s.name, s.size, Ir.Ty.alignment s.ty))
    a.slots

let has_role role (p : Analysis.Dop.pair) = List.mem role p.victim_roles

(* Branch-feeding victims that keep the dispatcher loop alive must be
   pinned to 0 (the loop-counter trick of the hand-written corpus);
   slots already carrying a payload write are left alone. *)
let pins same_pairs ~written =
  List.filter_map
    (fun (p : Analysis.Dop.pair) ->
      if
        has_role Analysis.Funcan.Branch_feed p
        && not (List.mem p.victim_slot written)
      then
        Some { Chain.target = p.victim_slot; value = Chain.Const 0L }
      else None)
    same_pairs

(* dedup preserving first occurrence *)
let uniq l =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

(* ------------------------------------------------------------------ *)
(* Semantic probing: learn what the dispatcher computes by running the
   attacker's own unhardened replica and reading two known-value
   globals back.  Two applications of the gadget disambiguate the op:
   with observed global A (init a) as the written operand and B (init
   b) as the source, add lands on a+2b, sub on a-2b, mov on b, and an
   op that never touches A leaves a. *)

let probe_predictions a b =
  [
    (`Add, Int64.add a (Int64.mul 2L b));
    (`Sub, Int64.sub a (Int64.mul 2L b));
    (`Mov, b);
    (`Nop, a);
  ]

let distinct_predictions a b =
  let vs = List.map snd (probe_predictions a b) in
  List.length (List.sort_uniq compare vs) = List.length vs

(* A writable 8-byte global with a known initial value, usable as a
   probe operand, accumulator or unit cell. *)
let scalar_globals (prog : Ir.Prog.t) =
  List.filter_map
    (fun (g : Ir.Prog.global) ->
      if g.gwritable && Ir.Ty.size g.gty = 8 then
        Option.map (fun v -> (g.gname, v)) (Gadget.global_init prog g.gname)
      else None)
    prog.globals

let probe_global_pair prog =
  let gs = scalar_globals prog in
  List.find_map
    (fun (ga, a) ->
      List.find_map
        (fun (gb, b) ->
          if ga <> gb && distinct_predictions a b then Some ((ga, a), (gb, b))
          else None)
        gs)
    gs

type probe_ctx = {
  replica : Defenses.Defense.applied;
  target : string;
  func : string;
  buffer : string;
  frame_slots : (string * int * int) list;
  same_pairs : Analysis.Dop.pair list;
  p1 : string;  (** first pointer-feeding victim slot *)
  p2 : string;
  mutable runs : int;
}

(* One probe execution: deliver [sel = k] twice with the pointer slots
   re-aimed at the chosen globals, return their final values.  Always
   on the reference engine — probing is the attacker's offline
   analysis, and pinning it to the oracle keeps the synthesized chain
   set independent of the session's --engine choice. *)
let probe_run ctx ~sel ~k ~aim1 ~aim2 ~observe =
  let writes =
    [
      { Chain.target = ctx.p1; value = Chain.Addr_of_global aim1 };
      { Chain.target = ctx.p2; value = Chain.Addr_of_global aim2 };
      { Chain.target = sel; value = Chain.Const k };
    ]
  in
  let written = [ ctx.p1; ctx.p2; sel ] in
  let step = { Chain.writes = writes @ pins ctx.same_pairs ~written } in
  let chain =
    Chain.make ~family:Chain.Dispatch_loop ~target:ctx.target ~func:ctx.func
      ~buffer:ctx.buffer ~slots:ctx.frame_slots ~steps:[ step; step ]
      ~goal:Chain.Output_differs ~pair_ids:[] ~note:"probe"
  in
  match Payload.lower ctx.replica chain ~seed:0L with
  | exception Invalid_argument _ -> None
  | chunks -> (
      ctx.runs <- ctx.runs + 1;
      let kept = ref None in
      match
        ignore
          (Apps.Runner.run_chunks ~backend:Machine.Backend.reference
             ~arm:(fun st -> kept := Some st)
             ctx.replica ~seed:11L ~chunks);
        Exec.final_global (Option.get !kept) observe
      with
      | exception Invalid_argument _ -> None
      | v -> Some v)

(* Classify one (selector, constant) pair into an Arith gadget, or
   nothing if the deltas match no model. *)
let probe_selector ctx ~sel ~k ((ga, a), (gb, b)) =
  let classify observed ~dst_first =
    List.find_map
      (fun (tag, v) ->
        if observed = v then
          match tag with
          | `Add -> Some (Gadget.Add, dst_first)
          | `Sub -> Some (Gadget.Sub, dst_first)
          | `Mov -> Some (Gadget.Mov, dst_first)
          | `Nop -> None
        else None)
      (probe_predictions a b)
  in
  (* orientation X: p1 observed (aimed at ga), p2 sources gb *)
  match probe_run ctx ~sel ~k ~aim1:ga ~aim2:gb ~observe:ga with
  | None -> None
  | Some final -> (
      match classify final ~dst_first:true with
      | Some (aop, dst_first) -> Some (aop, dst_first)
      | None ->
          if final <> a then None
          else
            (* p1 untouched: try the mirrored orientation, p2 observed *)
            Option.bind
              (probe_run ctx ~sel ~k ~aim1:gb ~aim2:ga ~observe:ga)
              (fun final -> classify final ~dst_first:false))

(* ------------------------------------------------------------------ *)
(* Double-and-add compilation of a flip delta from a learned add
   gadget: acc starts at 0, unit holds 1; MSB-first doubling builds the
   delta in acc, a final add lands it on the flip target. *)

let bits_of delta =
  let n = Int64.to_int delta in
  let nbits =
    let rec go b = if n lsr b = 0 then b else go (b + 1) in
    go 0
  in
  List.init nbits (fun i -> (n lsr (nbits - 1 - i)) land 1)

let dispatch_step ctx ~sel ~k ~dst_first ~dst ~src =
  let aim1, aim2 = if dst_first then (dst, src) else (src, dst) in
  let writes =
    [
      { Chain.target = ctx.p1; value = Chain.Addr_of_global aim1 };
      { Chain.target = ctx.p2; value = Chain.Addr_of_global aim2 };
      { Chain.target = sel; value = Chain.Const k };
    ]
  in
  let written = [ ctx.p1; ctx.p2; sel ] in
  { Chain.writes = writes @ pins ctx.same_pairs ~written }

(* ------------------------------------------------------------------ *)
(* Leak-guided planning: turn the static leak analysis into disclosure
   gadgets the executor can consume. *)

type guide = { gfunc : string; disclosed : string list; gbits : float }

let leak_guides prog =
  let lk = Analysis.Leakan.analyze prog in
  (* slots whose addresses reach an output sink, per owning function *)
  let disclosed_by : (string, string list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (l : Analysis.Leakan.leak) ->
      match (l.source, l.channel, l.sink) with
      | ( Analysis.Leakan.Slot_addr s,
          Analysis.Leakan.Address_disclosure,
          Analysis.Leakan.Output _ ) ->
          let cell =
            match Hashtbl.find_opt disclosed_by l.source_func with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.replace disclosed_by l.source_func c;
                c
          in
          if not (List.mem s !cell) then cell := s :: !cell
      | _ -> ())
    lk.leaks;
  (* one guide per disclosing function, slots in frame declaration
     order — the order the disclosure preamble prints them (the
     {!Exec.brute_guided} convention) *)
  List.filter_map
    (fun (f : Ir.Func.t) ->
      match Hashtbl.find_opt disclosed_by f.name with
      | None -> None
      | Some cell ->
          let decl_order =
            match f.blocks with
            | [] -> []
            | entry :: _ ->
                List.filter_map
                  (function
                    | Ir.Instr.Alloca { count = None; name; _ } -> Some name
                    | _ -> None)
                  entry.instrs
          in
          let disclosed =
            List.filter (fun n -> List.mem n !cell) decl_order
          in
          if disclosed = [] then None
          else
            Some
              {
                gfunc = f.name;
                disclosed;
                gbits = Analysis.Leakan.leaked_bits_for lk [ f.name ];
              })
    prog.funcs

let guide_for guides (chain : Chain.t) =
  List.find_opt
    (fun g -> g.gfunc = chain.func && List.mem chain.buffer g.disclosed)
    guides

(* ------------------------------------------------------------------ *)

let synthesize ?(max_chains = 8) ~target prog =
  let funcans = Analysis.Funcan.analyze prog in
  let pairs = Analysis.Dop.enumerate prog funcans in
  let gadgets = Gadget.harvest prog funcans pairs in
  let flips = Gadget.mined_global_flips prog in
  let an_of = Hashtbl.create 8 in
  List.iter
    (fun (a : Analysis.Funcan.t) -> Hashtbl.replace an_of a.fname a)
    funcans;
  let consts_of =
    let cache = Hashtbl.create 8 in
    fun fname ->
      match Hashtbl.find_opt cache fname with
      | Some t -> t
      | None ->
          let t =
            match Ir.Prog.find_func prog fname with
            | Some f -> Gadget.mined_slot_consts f
            | None -> []
          in
          Hashtbl.replace cache fname t;
          t
  in
  (* the attacker's replica: an unhardened build of the same program,
     used only for offline probing *)
  let replica = lazy (Defenses.Defense.apply ~seed:3L Defenses.Defense.No_defense prog) in
  let probes_run = ref 0 in
  let learned = ref [] in
  let chains = ref [] in
  let emit c = if List.length !chains < max_chains then chains := !chains @ [ c ] in
  let deliverables =
    List.filter_map
      (fun (g : Gadget.t) ->
        if g.kind = Gadget.Deliver then Some (g.func, g.slot) else None)
      gadgets
  in
  List.iter
    (fun (func, buffer) ->
      let an = Hashtbl.find an_of func in
      let frame_slots = slots_of an in
      let same_pairs =
        List.filter
          (fun (p : Analysis.Dop.pair) ->
            p.kind = Analysis.Dop.Same_frame
            && p.buf_func = func && p.buf_slot = buffer)
          pairs
      in
      let slot_consts = consts_of func in
      (* ---- family 1: direct-flip ---- *)
      List.iter
        (fun (p : Analysis.Dop.pair) ->
          if has_role Analysis.Funcan.Branch_feed p then
            List.iter
              (fun c ->
                emit
                  (Chain.make ~family:Chain.Direct_flip ~target ~func ~buffer
                     ~slots:frame_slots
                     ~steps:
                       [
                         {
                           Chain.writes =
                             [
                               {
                                 Chain.target = p.victim_slot;
                                 value = Chain.Const c;
                               };
                             ];
                         };
                       ]
                     ~goal:Chain.Output_differs ~pair_ids:[ p.pair_id ]
                     ~note:
                       (Printf.sprintf "flip branch on %s with mined %Ld"
                          p.victim_slot c)))
              (Option.value ~default:[]
                 (List.assoc_opt p.victim_slot slot_consts)))
        same_pairs;
      (* ---- family 2: aim-then-write ---- *)
      (match
         ( List.find_opt (has_role Analysis.Funcan.Mem_addr) same_pairs,
           List.find_opt (has_role Analysis.Funcan.Wild_data) same_pairs,
           flips )
       with
      | Some pp, Some pd, (g, _init, c) :: _ when pp.victim_slot <> pd.victim_slot
        ->
          let writes =
            [
              { Chain.target = pp.victim_slot;
                value = Chain.Addr_of_global g };
              { Chain.target = pd.victim_slot; value = Chain.Const c };
            ]
          in
          let written = [ pp.victim_slot; pd.victim_slot ] in
          emit
            (Chain.make ~family:Chain.Aim_write ~target ~func ~buffer
               ~slots:frame_slots
               ~steps:[ { Chain.writes = writes @ pins same_pairs ~written } ]
               ~goal:(Chain.Flip_global (g, c))
               ~pair_ids:[ pp.pair_id; pd.pair_id ]
               ~note:
                 (Printf.sprintf "aim %s at %s, plant %Ld via %s"
                    pp.victim_slot g c pd.victim_slot))
      | _ -> ());
      (* ---- family 3: dispatch-loop ---- *)
      let ptrs =
        uniq
          (List.filter_map
             (fun (p : Analysis.Dop.pair) ->
               if has_role Analysis.Funcan.Mem_addr p then
                 Some (p.victim_slot, p.pair_id)
               else None)
             same_pairs)
      in
      let selectors =
        List.filter_map
          (fun (p : Analysis.Dop.pair) ->
            if has_role Analysis.Funcan.Branch_feed p then
              match List.assoc_opt p.victim_slot slot_consts with
              | Some cs when cs <> [] -> Some (p.victim_slot, cs, p.pair_id)
              | _ -> None
            else None)
          same_pairs
      in
      match (ptrs, probe_global_pair prog) with
      | (p1, pid1) :: (p2, pid2) :: _, Some probe_pair
        when selectors <> [] ->
          let ctx =
            {
              replica = Lazy.force replica;
              target;
              func;
              buffer;
              frame_slots;
              same_pairs;
              p1;
              p2;
              runs = 0;
            }
          in
          let arsenal =
            List.concat_map
              (fun (sel, cs, spid) ->
                if sel = p1 || sel = p2 then []
                else
                  List.filter_map
                    (fun k ->
                      match probe_selector ctx ~sel ~k probe_pair with
                      | Some (aop, dst_first) ->
                          Some (sel, k, aop, dst_first, spid)
                      | None -> None)
                    cs)
              selectors
          in
          probes_run := !probes_run + ctx.runs;
          learned :=
            !learned
            @ List.map
                (fun (sel, k, aop, dst_first, spid) ->
                  Gadget.v
                    (Gadget.Arith
                       { aop; sel_slot = sel; sel_value = k; dst_first })
                    ~func ~slot:sel ~pair_ids:[ spid ])
                arsenal;
          (* compile the first flip with the first learned add, a unit
             cell and an accumulator cell *)
          let cells = scalar_globals prog in
          let adds =
            List.filter (fun (_, _, aop, _, _) -> aop = Gadget.Add) arsenal
          in
          (match adds with
          | (sel, k, _, dst_first, spid) :: _ ->
              let pick p = List.find_opt p cells in
              let unit_cell = pick (fun (_, v) -> v = 1L) in
              (match
                 List.find_map
                   (fun (g, init, c) ->
                     let delta = Int64.sub c init in
                     if Int64.compare delta 0L > 0
                        && Int64.compare delta 0x4000_0000L < 0
                     then
                       Option.bind unit_cell (fun (u, _) ->
                           Option.map
                             (fun (acc, _) -> (g, c, delta, u, acc))
                             (pick (fun (cell, v) ->
                                  v = 0L && cell <> u && cell <> g)))
                     else None)
                   flips
               with
              | Some (g, c, delta, unit, acc) ->
                  let add ~dst ~src =
                    dispatch_step ctx ~sel ~k ~dst_first ~dst ~src
                  in
                  let steps =
                    List.concat_map
                      (fun bit ->
                        (add ~dst:acc ~src:acc)
                        :: (if bit = 1 then [ add ~dst:acc ~src:unit ] else []))
                      (bits_of delta)
                    @ [ add ~dst:g ~src:acc ]
                  in
                  emit
                    (Chain.make ~family:Chain.Dispatch_loop ~target ~func
                       ~buffer ~slots:frame_slots ~steps
                       ~goal:(Chain.Flip_global (g, c))
                       ~pair_ids:(uniq [ pid1; pid2; spid ])
                       ~note:
                         (Printf.sprintf
                            "probed add (%s=%Ld); %Ld into %s by \
                             double-and-add over %s/%s"
                            sel k delta g acc unit))
              | None -> ())
          | [] -> ())
      | _ -> ())
    deliverables;
  ( {
      prog;
      funcans;
      pairs;
      gadgets;
      flips;
      probes_run = !probes_run;
      learned = !learned;
    },
    !chains )
