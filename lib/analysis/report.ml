module J = Sutil.Json

type scored_pair = {
  pair : Dop.pair;
  attempts : (string * float) list;
  degraded : (string * float) list;
      (** expected attempts after conditioning on the statically-found
          leaks of the pair's two frames; [= attempts] rows are elided
          and the list is [[]] when the pair's frames leak nothing *)
}

type func_summary = {
  fname : string;
  n_slots : int;
  n_overflow : int;
  n_victims : int;
  wild_stores : int;
  frame_bytes : int;
  validated : bool;
      (** default-config hardening of this program passes the static
          validator with no violation attributed to this function *)
  leaked_bits : float;
      (** collision-entropy bits this function's layout secrets leak to
          observable sinks ({!Leakan}) *)
}

type t = {
  name : string;
  funcs : func_summary list;
  analyses : Funcan.t list;
  pairs : scored_pair list;
  defense_names : string list;
  leakage : Leakan.t;
}

(* Conditioning the attempt model on disclosure (DESIGN.md §17): for
   the per-invocation defense the attacker re-learns the leaked bits
   every run, so expected attempts divide by [2^bits] — exactly the
   conditional collision estimate [Σp_b² / Σp_joint²].  For per-build
   defenses the layout is fixed, so any value/address disclosure
   reveals it once and for all (one attempt); an oracle alone still
   only divides. *)
let degrade (leakage : Leakan.t) (p : Dop.pair) attempts =
  let relevant = [ p.buf_func; p.victim_func ] in
  let rel_leaks =
    List.filter
      (fun (l : Leakan.leak) -> List.mem l.source_func relevant)
      leakage.leaks
  in
  if rel_leaks = [] then []
  else
    let bits = Leakan.leaked_bits_for leakage relevant in
    let full_disclosure =
      List.exists
        (fun (l : Leakan.leak) -> l.channel <> Leakan.Comparison_oracle)
        rel_leaks
    in
    List.map
      (fun (d, a) ->
        let a' =
          if d = "none" then a
          else if d = "smokestack" then
            Float.max 1. (a /. Float.pow 2. bits)
          else if full_disclosure then Float.min a 1.
          else Float.max 1. (a /. Float.pow 2. bits)
        in
        (d, a'))
      attempts

let analyze_prog ?(name = "program") ?(score = true) prog =
  let analyses = Funcan.analyze prog in
  let raw_pairs = Dop.enumerate prog analyses in
  (* Harden once under the default config: the same artifact feeds the
     per-function validation verdict and the leak quantification. *)
  let hardened =
    match
      Smokestack.Harden.harden ~validate:false Smokestack.Config.default prog
    with
    | h -> Some h
    | exception _ -> None
  in
  let readable =
    List.sort_uniq compare
      (List.map (fun (p : Dop.pair) -> (p.buf_func, p.buf_slot)) raw_pairs)
  in
  let leakage = Leakan.analyze ?hardened ~readable prog in
  let pairs =
    if score && raw_pairs <> [] then
      let ctx = Score.make_ctx prog analyses in
      List.map
        (fun p ->
          let attempts = Score.attempts ctx p in
          { pair = p; attempts; degraded = degrade leakage p attempts })
        raw_pairs
    else List.map (fun p -> { pair = p; attempts = []; degraded = [] }) raw_pairs
  in
  (* Per-function validation verdict: ask the static validator which
     functions (if any) violate a post-condition.  A program that
     cannot be hardened at all (e.g. it already is) validates
     nothing. *)
  let invalidated =
    match hardened with
    | Some h ->
        let vs = Validate.check ~original:prog h in
        fun fname ->
          List.exists (fun (v : Validate.violation) -> v.func = fname) vs
    | None -> fun _ -> true
  in
  let funcs =
    List.map
      (fun (a : Funcan.t) ->
        let frame =
          match Ir.Prog.find_func prog a.fname with
          | Some f -> (Attacks.Layout.frame_of_func f).frame_bytes
          | None -> 0
        in
        {
          fname = a.fname;
          n_slots = List.length a.slots;
          n_overflow =
            List.length
              (List.filter (fun (s : Funcan.slot) -> s.overflow <> []) a.slots);
          n_victims =
            List.length
              (List.filter (fun (s : Funcan.slot) -> s.roles <> []) a.slots);
          wild_stores = a.wild_stores;
          frame_bytes = frame;
          validated = not (invalidated a.fname);
          leaked_bits = Leakan.leaked_bits_for leakage [ a.fname ];
        })
      analyses
  in
  let defense_names = if score then Score.defense_names else [] in
  { name; funcs; analyses; pairs; defense_names; leakage }

let summary t =
  List.map
    (fun d ->
      let best =
        List.fold_left
          (fun acc sp ->
            match List.assoc_opt d sp.attempts with
            | Some a when a < acc -> a
            | _ -> acc)
          infinity t.pairs
      in
      (d, best))
    t.defense_names

let summary_degraded t =
  List.map
    (fun d ->
      let best =
        List.fold_left
          (fun acc sp ->
            let eff =
              match List.assoc_opt d sp.degraded with
              | Some a -> Some a
              | None -> List.assoc_opt d sp.attempts
            in
            match eff with Some a when a < acc -> a | _ -> acc)
          infinity t.pairs
      in
      (d, best))
    t.defense_names

(* ---------------- tables ---------------- *)

let att_str a =
  if a = infinity then "-" else Format.asprintf "%.3g" a

let to_table t =
  let tt =
    Sutil.Texttable.create
      ~columns:
        (List.map
           (fun c -> (c, Sutil.Texttable.Left))
           [ "kind"; "buffer"; "victim"; "dist"; "roles" ]
        @ List.map (fun c -> (c, Sutil.Texttable.Right)) t.defense_names)
  in
  List.iter
    (fun sp ->
      let p = sp.pair in
      Sutil.Texttable.add_row tt
        ([
           Dop.kind_to_string p.kind;
           p.buf_func ^ ":" ^ p.buf_slot;
           p.victim_func ^ ":" ^ p.victim_slot;
           (match p.static_distance with
           | Some d -> string_of_int d
           | None -> "-");
           String.concat "," (List.map Funcan.role_to_string p.victim_roles);
         ]
        @ List.map
            (fun d ->
              match List.assoc_opt d sp.attempts with
              | Some a -> att_str a
              | None -> "-")
            t.defense_names))
    t.pairs;
  tt

let funcs_table t =
  let tt =
    Sutil.Texttable.create
      ~columns:
        (("function", Sutil.Texttable.Left)
        :: List.map
             (fun c -> (c, Sutil.Texttable.Right))
             [ "slots"; "overflow"; "victims"; "wild stores"; "frame B";
               "validated"; "leak bits" ])
  in
  List.iter
    (fun f ->
      Sutil.Texttable.add_row tt
        [
          f.fname;
          string_of_int f.n_slots;
          string_of_int f.n_overflow;
          string_of_int f.n_victims;
          string_of_int f.wild_stores;
          string_of_int f.frame_bytes;
          (if f.validated then "yes" else "NO");
          (if f.leaked_bits = 0. then "-"
           else Format.asprintf "%.2f" f.leaked_bits);
        ])
    t.funcs;
  tt

let to_text t =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "DOP attack surface: %s\n\n" t.name;
  out "per-function\n%s\n" (Sutil.Texttable.render (funcs_table t));
  List.iter
    (fun (a : Funcan.t) ->
      List.iter
        (fun (s : Funcan.slot) ->
          if s.overflow <> [] || s.roles <> [] then begin
            out "  %s:%s (%d B at %d): " a.fname s.name s.size s.offset;
            if s.overflow = [] then out "safe"
            else
              out "overflow-capable [%s]"
                (String.concat "; "
                   (List.map Funcan.reason_to_string s.overflow));
            if s.roles <> [] then
              out " roles [%s]"
                (String.concat ", " (List.map Funcan.role_to_string s.roles));
            out "\n"
          end)
        a.slots)
    t.analyses;
  out "\nDOP pairs (%d) — expected attempts per defense\n%s\n"
    (List.length t.pairs)
    (Sutil.Texttable.render (to_table t));
  if t.defense_names <> [] then begin
    out "easiest pair per defense:\n";
    List.iter (fun (d, a) -> out "  %-12s %s\n" d (att_str a)) (summary t)
  end;
  if t.leakage.leaks <> [] then begin
    out "\nlayout leaks (%d flows, %.2f bits total)\n"
      (List.length t.leakage.leaks)
      t.leakage.total_bits;
    List.iter
      (fun l -> out "  %s\n" (Leakan.leak_to_string l))
      t.leakage.leaks;
    List.iter
      (fun (fb : Leakan.func_bits) ->
        out "  %s: %.2f of %.2f frame bits disclosed\n" fb.fname
          fb.leaked_bits fb.frame_bits)
      t.leakage.funcs;
    if t.defense_names <> [] then begin
      out "easiest pair per defense, leak-degraded:\n";
      List.iter
        (fun (d, a) -> out "  %-12s %s\n" d (att_str a))
        (summary_degraded t)
    end
  end;
  Buffer.contents buf

(* ---------------- JSON ---------------- *)

let role_to_json r = J.String (Funcan.role_to_string r)

let reason_to_json (r : Funcan.reason) =
  let kind, detail =
    match r with
    | Out_of_extent s -> ("out-of-extent", s)
    | Unbounded_intrinsic s -> ("unbounded-intrinsic", s)
    | Escape s -> ("escape", s)
  in
  J.Obj [ ("kind", J.String kind); ("detail", J.String detail) ]

let slot_to_json (s : Funcan.slot) =
  J.Obj
    [
      ("index", J.Int s.index);
      ("name", J.String s.name);
      ("reg", J.Int s.reg);
      ("ty", J.String (Ir.Ty.to_string s.ty));
      ("size", J.Int s.size);
      ("offset", J.Int s.offset);
      ("overflow", J.List (List.map reason_to_json s.overflow));
      ("roles", J.List (List.map role_to_json s.roles));
    ]

let funcan_to_json (a : Funcan.t) =
  J.Obj
    [
      ("fname", J.String a.fname);
      ("slots", J.List (List.map slot_to_json a.slots));
      ("wild_stores", J.Int a.wild_stores);
      ("heap_stores", J.Int a.heap_stores);
      ("global_overflows", J.List (List.map (fun g -> J.String g) a.global_overflows));
      ("callees", J.List (List.map (fun c -> J.String c) a.callees));
      ("has_call_ind", J.Bool a.has_call_ind);
    ]

let pair_to_json sp =
  let p = sp.pair in
  J.Obj
    ([
       ("pair_id", J.String p.pair_id);
       ("kind", J.String (Dop.kind_to_string p.kind));
       ("buf_func", J.String p.buf_func);
       ("buf_slot", J.String p.buf_slot);
       ("victim_func", J.String p.victim_func);
       ("victim_slot", J.String p.victim_slot);
       ( "static_distance",
         match p.static_distance with Some d -> J.Int d | None -> J.Null );
       ("path", J.List (List.map (fun s -> J.String s) p.path));
       ("victim_roles", J.List (List.map role_to_json p.victim_roles));
       ("reasons", J.List (List.map reason_to_json p.reasons));
       ( "attempts",
         J.Obj (List.map (fun (d, a) -> (d, J.Float a)) sp.attempts) );
     ]
    @
    if sp.degraded = [] then []
    else
      [
        ( "degraded",
          J.Obj (List.map (fun (d, a) -> (d, J.Float a)) sp.degraded) );
      ])

let func_summary_to_json f =
  J.Obj
    [
      ("fname", J.String f.fname);
      ("n_slots", J.Int f.n_slots);
      ("n_overflow", J.Int f.n_overflow);
      ("n_victims", J.Int f.n_victims);
      ("wild_stores", J.Int f.wild_stores);
      ("frame_bytes", J.Int f.frame_bytes);
      ("validated", J.Bool f.validated);
      ("leaked_bits", J.Float f.leaked_bits);
    ]

let leak_to_json (l : Leakan.leak) =
  let sink_kind, sink_arg =
    match l.sink with
    | Leakan.Output s -> ("output", s)
    | Leakan.Global_store s -> ("global-store", s)
    | Leakan.Readable_buffer s -> ("readable-buffer", s)
    | Leakan.Oracle_branch -> ("oracle-branch", "")
  in
  J.Obj
    [
      ("func", J.String l.func);
      ("source_func", J.String l.source_func);
      ("source", J.String (Leakan.source_to_string l.source));
      ("channel", J.String (Leakan.channel_to_string l.channel));
      ("sink", J.String sink_kind);
      ("sink_arg", J.String sink_arg);
      ("bits", J.Float l.bits);
    ]

let leak_func_to_json (fb : Leakan.func_bits) =
  J.Obj
    [
      ("fname", J.String fb.fname);
      ("frame_bits", J.Float fb.frame_bits);
      ("leaked_bits", J.Float fb.leaked_bits);
    ]

let leakage_to_json (lk : Leakan.t) =
  J.Obj
    [
      ("leaks", J.List (List.map leak_to_json lk.leaks));
      ("funcs", J.List (List.map leak_func_to_json lk.funcs));
      ("total_bits", J.Float lk.total_bits);
    ]

let to_json t =
  J.Obj
    [
      ("name", J.String t.name);
      ("defenses", J.List (List.map (fun d -> J.String d) t.defense_names));
      ("funcs", J.List (List.map func_summary_to_json t.funcs));
      ("analyses", J.List (List.map funcan_to_json t.analyses));
      ("pairs", J.List (List.map pair_to_json t.pairs));
      ("leakage", leakage_to_json t.leakage);
      ( "summary",
        J.Obj (List.map (fun (d, a) -> (d, J.Float a)) (summary t)) );
      ( "summary_degraded",
        J.Obj (List.map (fun (d, a) -> (d, J.Float a)) (summary_degraded t)) );
    ]
