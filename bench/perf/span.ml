(* Monotonic-clock timing and the span recorder of the traced round.

   Spans live in per-domain buffers (registered once per domain, so
   recording never takes a lock) and are collected and written out as
   JSON lines only after the round ends.  Allocation deltas come from
   [Gc.counters], which OCaml 5 keeps per domain: [Gc.quick_stat] sums
   over all domains, so a span on one domain would be charged for its
   neighbour's allocation. *)

let now () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, secs_since t0)

type t = {
  name : string;
  id : int;
  parent : int option;
  req : int;  (** program index or session id; -1 when none *)
  domain : int;
  t0 : int64;
  t1 : int64;
  alloc_bytes : float;
  dup : bool;
      (** work the untraced unit does not do (the bytecode compile timed
          on its own, the unhardened runs that price the runtime); left
          out of sums *)
  wait_ns : int64 option;  (** pool jobs: submit-to-start queue wait *)
}

type buffer = { mutable spans : t list; mutable open_ : int list }

let registry = ref []
let registry_lock = Mutex.create ()
let next_id = Atomic.make 0

let key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; open_ = [] } in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let allocated () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int (Sys.word_size / 8)

let record ?(req = -1) ?(dup = false) ?wait_ns name f =
  let b = Domain.DLS.get key in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match b.open_ with p :: _ -> Some p | [] -> None in
  b.open_ <- id :: b.open_;
  let a0 = allocated () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    b.open_ <- List.tl b.open_;
    b.spans <-
      {
        name;
        id;
        parent;
        req;
        domain = (Domain.self () :> int);
        t0;
        t1;
        alloc_bytes = allocated () -. a0;
        dup;
        wait_ns;
      }
      :: b.spans
  in
  Fun.protect ~finally:finish f

(* Take every span recorded since the last call, in start order. *)
let collect () =
  Mutex.protect registry_lock (fun () ->
      let all = List.concat_map (fun b -> b.spans) !registry in
      List.iter (fun b -> b.spans <- []) !registry;
      List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) all)

let ms_of_ns ns = Int64.to_float ns *. 1e-6
let duration_ms s = ms_of_ns (Int64.sub s.t1 s.t0)

let to_json ~origin s =
  let module J = Sutil.Json in
  let rel t = J.Int (Int64.to_int (Int64.sub t origin)) in
  J.Obj
    ([
       ("name", J.String s.name);
       ("id", J.Int s.id);
       ("parent", match s.parent with Some p -> J.Int p | None -> J.Null);
       ("req", J.Int s.req);
       ("domain", J.Int s.domain);
       ("start_ns", rel s.t0);
       ("end_ns", rel s.t1);
       ("alloc_bytes", J.Int (int_of_float s.alloc_bytes));
       ("dup", J.Bool s.dup);
     ]
    @ match s.wait_ns with
      | Some w -> [ ("wait_ns", J.Int (Int64.to_int w)) ]
      | None -> [])

let write_jsonl path ~origin spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Sutil.Json.to_channel oc (to_json ~origin s);
          output_char oc '\n')
        spans)

(* Self time of every non-duplicate span: its duration minus the time
   its children cover, duplicates included, so duplicate work shows in
   no layer.  Children never outlive their parent (spans nest on one
   domain), so subtracting their durations is exact. *)
let self_ms spans =
  let child_ms = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt child_ms p) in
          Hashtbl.replace child_ms p (prev +. duration_ms s)
      | _ -> ())
    spans;
  List.filter_map
    (fun s ->
      if s.dup then None
      else
        let c = Option.value ~default:0. (Hashtbl.find_opt child_ms s.id) in
        Some (s, duration_ms s -. c))
    spans

let dup_ms spans =
  List.fold_left (fun a s -> if s.dup then a +. duration_ms s else a) 0. spans

(* Wall time covered by the union of the non-duplicate top-level spans'
   intervals, across all domains. *)
let covered_ms spans =
  let tops =
    List.filter (fun s -> s.parent = None && not s.dup) spans
    |> List.map (fun s -> (s.t0, s.t1))
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (acc, Some (ca, max cb b))
            else (Int64.add acc (Int64.sub cb ca), Some (a, b)))
      (0L, None) tops
  in
  let total =
    match last with Some (a, b) -> Int64.add total (Int64.sub b a) | None -> total
  in
  ms_of_ns total
