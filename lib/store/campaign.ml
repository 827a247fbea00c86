module J = Sutil.Json

type config = {
  seed : int64;
  count : int;
  exec_seed : int64;
  harden : Smokestack.Config.t option;
  engine : Machine.Backend.kind;
  fuel : int;
  shard : int;
}

let config ?(seed = 1000L) ?(exec_seed = 7L) ?harden
    ?(engine = Machine.Backend.Reference) ?(fuel = 2_000_000) ?(shard = 512)
    ~count () =
  { seed; count; exec_seed; harden; engine; fuel; shard }

(* The harden pipeline's own layout-draw seed.  Fixed (matching the
   harness convention) but still recorded in the key's [extra] so a
   future knob can't silently alias entries. *)
let harden_seed = 3L

(* The campaign's key function: everything but the source is rendered
   once per call of [key_of], so each program costs one source hash. *)
let key_of cfg =
  Key.for_sources ~config:cfg.harden ~engine:cfg.engine ~seed:cfg.exec_seed
    ~extra:(Printf.sprintf "campaign;fuel=%d;hseed=%Ld" cfg.fuel harden_seed)
    ()

type report = {
  programs : int;
  exited_zero : int;
  exited_nonzero : int;
  faulted : int;
  detected : int;
  fuel_exhausted : int;
  total_instrs : int;
  total_calls : int;
  deepest_call : int;
  digest : string;
}

(* Execute one program fresh (cache miss path). *)
let execute cfg backend pseed source =
  let prog = Minic.Driver.compile source in
  let entropy = Crypto.Entropy.create ~seed:(Int64.add cfg.exec_seed pseed) in
  let st, pbox_bytes =
    match cfg.harden with
    | None -> (Machine.Exec.prepare prog, None)
    | Some hcfg ->
        let hardened =
          Smokestack.Harden.harden ~seed:harden_seed ~validate:false hcfg prog
        in
        ( Smokestack.Harden.prepare ~entropy hardened,
          Some (Smokestack.Harden.pbox_bytes hardened) )
  in
  Entry.exec_of_run ?pbox_bytes ((backend : Machine.Backend.t).run ~fuel:cfg.fuel st)

let classify (e : Entry.exec) =
  match e.exit_code with
  | Some 0L -> `Exit_zero
  | Some _ -> `Exit_nonzero
  | None ->
      if String.starts_with ~prefix:"fault" e.outcome then `Fault
      else if String.starts_with ~prefix:"attack detected" e.outcome then
        `Detected
      else `Fuel

(* One canonical line per program; the report digest is a hash over
   these in seed order, so it witnesses every observable byte. *)
let line pseed (e : Entry.exec) =
  let s = e.stats in
  Printf.sprintf "%Ld|%s|%h|%d|%d|%d|%d|%d|%s" pseed e.outcome s.cycles
    s.instr_count s.call_count s.max_depth s.max_frame_bytes s.rss_bytes
    (Hash.hex s.output)

let run ?(pool = Sched.Pool.sequential) ~store cfg =
  let backend = Machine.Backend.find cfg.engine in
  let key_of = key_of cfg in
  let shard = max 1 cfg.shard in
  let buf = Buffer.create (96 * max 16 cfg.count) in
  let exited_zero = ref 0
  and exited_nonzero = ref 0
  and faulted = ref 0
  and detected = ref 0
  and fuel_exhausted = ref 0
  and total_instrs = ref 0
  and total_calls = ref 0
  and deepest_call = ref 0 in
  let fold pseed exec =
    (match classify exec with
    | `Exit_zero -> incr exited_zero
    | `Exit_nonzero -> incr exited_nonzero
    | `Fault -> incr faulted
    | `Detected -> incr detected
    | `Fuel -> incr fuel_exhausted);
    total_instrs := !total_instrs + exec.stats.instr_count;
    total_calls := !total_calls + exec.stats.call_count;
    deepest_call := max !deepest_call exec.stats.max_depth;
    Buffer.add_string buf (line pseed exec);
    Buffer.add_char buf '\n'
  in
  (* Each job generates its own source from its seed, so generation
     runs on the pool too; folding in seed order keeps the digest
     independent of where and when a job ran. *)
  let rec waves first =
    let n = min shard (cfg.count - first) in
    if n > 0 then begin
      let pseeds = List.init n (fun i -> Int64.add cfg.seed (Int64.of_int (first + i))) in
      let jobs =
        List.map
          (fun pseed ->
            Sched.Job.v
              ~id:(Printf.sprintf "campaign/%Ld" pseed)
              ~seed:pseed
              (fun () ->
                let source = Minic.Progen.generate ~seed:pseed in
                Cache.memo store (key_of source) ~encode:Entry.exec_entry
                  ~decode:Entry.exec_of_entry (fun () ->
                    execute cfg backend pseed source)))
          pseeds
      in
      List.iter2 fold pseeds (Sched.Pool.run_all pool jobs);
      waves (first + n)
    end
  in
  waves 0;
  {
    programs = cfg.count;
    exited_zero = !exited_zero;
    exited_nonzero = !exited_nonzero;
    faulted = !faulted;
    detected = !detected;
    fuel_exhausted = !fuel_exhausted;
    total_instrs = !total_instrs;
    total_calls = !total_calls;
    deepest_call = !deepest_call;
    digest = Hash.hex (Buffer.contents buf);
  }

let remaining ~store cfg =
  let key_of = key_of cfg in
  Seq.fold_left
    (fun acc (_, source) ->
      if Cache.mem store (key_of source) then acc else acc + 1)
    0
    (Minic.Progen.range ~seed:cfg.seed cfg.count)

let report_table r =
  let t =
    Sutil.Texttable.create
      ~columns:[ ("metric", Sutil.Texttable.Left); ("value", Sutil.Texttable.Right) ]
  in
  let row m v = Sutil.Texttable.add_row t [ m; v ] in
  row "programs" (string_of_int r.programs);
  row "exit 0" (string_of_int r.exited_zero);
  row "exit nonzero" (string_of_int r.exited_nonzero);
  row "faults" (string_of_int r.faulted);
  row "detections" (string_of_int r.detected);
  row "fuel exhausted" (string_of_int r.fuel_exhausted);
  row "total instructions" (string_of_int r.total_instrs);
  row "total calls" (string_of_int r.total_calls);
  row "deepest call" (string_of_int r.deepest_call);
  Sutil.Texttable.add_rule t;
  row "digest" r.digest;
  t

let report_to_json r =
  J.Obj
    [
      ("programs", J.Int r.programs);
      ("exit_zero", J.Int r.exited_zero);
      ("exit_nonzero", J.Int r.exited_nonzero);
      ("faults", J.Int r.faulted);
      ("detections", J.Int r.detected);
      ("fuel_exhausted", J.Int r.fuel_exhausted);
      ("total_instrs", J.Int r.total_instrs);
      ("total_calls", J.Int r.total_calls);
      ("deepest_call", J.Int r.deepest_call);
      ("digest", J.String r.digest);
    ]
