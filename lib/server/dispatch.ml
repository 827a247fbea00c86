type discipline = Fcfs | Wfq

type degradation = {
  window : float;
  storm_failures : int;
  reserve : float;
}

let default_degradation =
  { window = 50_000.; storm_failures = 8; reserve = 0.5 }

type config = {
  virtual_workers : int;
  queue_capacity : int;
  shard : int;
  timeout : float option;
  retries : int;
  discipline : discipline;
  weights : int * int * int;
  policy : Policy.config option;
  degradation : degradation option;
}

let default =
  {
    virtual_workers = 16;
    queue_capacity = 1024;
    shard = 32;
    timeout = None;
    retries = 0;
    discipline = Fcfs;
    weights = (4, 2, 1);
    policy = None;
    degradation = None;
  }

type served = {
  outcome : Session.outcome;
  start : float;
  finish : float;
  cls : Policy.cls;
}

let wait s = s.start -. s.outcome.Session.spec.Session.arrival
let sojourn s = s.finish -. s.outcome.Session.spec.Session.arrival

type refusal = Backoff | Quarantine

let refusal_label = function Backoff -> "backoff" | Quarantine -> "quarantine"

type t = {
  served : served list;
  shed : (Session.outcome * Policy.cls) list;
  rejected : (Session.outcome * refusal) list;
  dropped : Session.spec list;
  peak_open : int;
  makespan : float;
  degraded : int;
  policy : Policy.stats option;
}

(* ------------------------------------------------------------------ *)
(* Virtual-time admission and queueing.

   Sessions are replayed, in arrival order, through a deterministic
   event-driven simulation of [virtual_workers] request handlers over
   the measured service times.  An arrival is first screened by the
   optional per-client {!Policy} (breaker rejections never reach the
   queue), then classified (paying / standard / suspect), then either
   started on an idle handler, enqueued, or shed.  The wait queue is
   FCFS or weighted-fair (SCFQ: each enqueue stamps a finish tag
   [max(vclock, class tag) + service/weight]; dequeues take the lowest
   (tag, seq) and advance the virtual clock to it), and under WFQ a
   full queue sheds by class: an arrival that outranks the lowest-class
   queued session evicts it instead of being refused.

   The queue is one FIFO per class.  Inside a class, tags never fall
   as [seq] rises: the FCFS tag is [seq] itself, and a WFQ tag is the
   class's previous tag, or the larger virtual clock, plus a
   non-negative service share.  So each FIFO is already in (tag, seq)
   order: the next session to start is the least of the three heads,
   and the eviction victim (lowest class, latest tag first) is the tail
   of the lowest-ranked non-empty class.  Every queue operation is
   constant time.

   Everything is computed from (arrival, service_cycles, verdict)
   triples — all bit-identical across engines and pool widths — so the
   admission decisions, breaker state, latencies and throughput are
   too. *)

(* A growable ring buffer: a deque with amortized constant-time push at
   the back and pop at either end ([Stdlib.Queue] cannot pop its back).
   The capacity stays a power of two, so indices wrap with a mask. *)
module Ring = struct
  type 'a t = { mutable buf : 'a array; mutable head : int; mutable len : int }

  let create () = { buf = [||]; head = 0; len = 0 }
  let length r = r.len
  let is_empty r = r.len = 0
  let slot r i = (r.head + i) land (Array.length r.buf - 1)

  let push r x =
    let cap = Array.length r.buf in
    if r.len = cap then begin
      let buf = Array.make (max 16 (2 * cap)) x in
      for i = 0 to r.len - 1 do
        buf.(i) <- r.buf.(slot r i)
      done;
      r.buf <- buf;
      r.head <- 0
    end;
    r.buf.(slot r r.len) <- x;
    r.len <- r.len + 1

  (* callers check [is_empty] first *)
  let front r = r.buf.(r.head)

  let pop_front r =
    let x = r.buf.(r.head) in
    r.head <- slot r 1;
    r.len <- r.len - 1;
    x

  let pop_back r =
    r.len <- r.len - 1;
    r.buf.(slot r r.len)
end

type entry = {
  e_outcome : Session.outcome;
  e_cls : Policy.cls;
  e_seq : int;
  e_tag : float;  (* SCFQ finish tag (Wfq); enqueue sequence (Fcfs) *)
  mutable e_finish : float;  (* set once, when a handler starts it *)
  mutable e_served : served option;  (* [None] until started *)
}

let cls_of policy (o : Session.outcome) =
  let is_suspect =
    match policy with
    | Some p -> Policy.suspect p ~client:o.Session.spec.Session.client
    | None -> false
  in
  if is_suspect then Policy.Suspect
  else if o.Session.spec.Session.paying then Policy.Paying
  else Policy.Standard

(* (finish, seq) order of busy handlers, without polymorphic compare *)
let finishes_before a b =
  a.e_finish < b.e_finish || (a.e_finish = b.e_finish && a.e_seq < b.e_seq)

(* (tag, seq) order of queued sessions *)
let tagged_before a b =
  a.e_tag < b.e_tag || (a.e_tag = b.e_tag && a.e_seq < b.e_seq)

let admit ?(dropped = []) cfg outcomes =
  let workers = max 1 cfg.virtual_workers in
  let policy = Option.map Policy.create cfg.policy in
  let wfq = match cfg.discipline with Wfq -> true | Fcfs -> false in
  let wp, ws, wu = cfg.weights in
  let weight = function
    | Policy.Paying -> float_of_int (max 1 wp)
    | Policy.Standard -> float_of_int (max 1 ws)
    | Policy.Suspect -> float_of_int (max 1 wu)
  in
  (* busy handlers, sorted by descending (finish, seq): the next to
     finish is last; allocated at the first start *)
  let busy = ref [||] in
  let nbusy = ref 0 in
  (* the wait queue: one FIFO per class, indexed by [Policy.cls_rank] *)
  let fifos = Array.init 3 (fun _ -> Ring.create ()) in
  let nqueue = ref 0 in
  let order = ref [] in  (* admitted entries, admission order (reversed) *)
  let shed = ref [] in
  let rejected = ref [] in
  let seq = ref 0 in
  let vclock = ref 0. in
  let class_tag = [| 0.; 0.; 0. |] in
  let fail_times = Ring.create () in  (* failed completions, by finish *)
  let peak_open = ref 0 in
  let makespan = ref 0. in
  let degraded_arrivals = ref 0 in
  let start_session ~at e =
    let finish = at +. e.e_outcome.Session.service_cycles in
    e.e_finish <- finish;
    e.e_served <-
      Some { outcome = e.e_outcome; start = at; finish; cls = e.e_cls };
    if Array.length !busy = 0 then busy := Array.make workers e;
    let b = !busy in
    let i = ref !nbusy in
    while !i > 0 && finishes_before b.(!i - 1) e do
      b.(!i) <- b.(!i - 1);
      decr i
    done;
    b.(!i) <- e;
    incr nbusy;
    if finish > !makespan then makespan := finish
  in
  let tag_of ~svc ~seq cls =
    if not wfq then float_of_int seq
    else
      let i = Policy.cls_rank cls in
      let tag = Float.max !vclock class_tag.(i) +. (svc /. weight cls) in
      class_tag.(i) <- tag;
      tag
  in
  let enqueue e =
    Ring.push fifos.(Policy.cls_rank e.e_cls) e;
    incr nqueue
  in
  let dequeue () =
    let best = ref (-1) in
    for i = 0 to 2 do
      let q = fifos.(i) in
      if
        (not (Ring.is_empty q))
        && (!best < 0 || tagged_before (Ring.front q) (Ring.front fifos.(!best)))
      then best := i
    done;
    if !best < 0 then None
    else begin
      let e = Ring.pop_front fifos.(!best) in
      decr nqueue;
      if wfq then vclock := e.e_tag;
      Some e
    end
  in
  (* evict the lowest-ranked queued session, latest-served first among
     equals: the tail of the lowest-ranked non-empty class; only
     strictly lower-ranked sessions are eviction fodder *)
  let evict_below cls =
    let rec scan i =
      if i >= Policy.cls_rank cls then None
      else if Ring.is_empty fifos.(i) then scan (i + 1)
      else begin
        decr nqueue;
        Some (Ring.pop_back fifos.(i))
      end
    in
    scan 0
  in
  let record_completion finish (e : entry) =
    let failure = Policy.failure_verdict e.e_outcome.Session.verdict in
    (match policy with
    | Some p ->
        Policy.observe p ~client:e.e_outcome.Session.spec.Session.client
          ~now:finish ~failure
    | None -> ());
    match cfg.degradation with
    | Some _ when failure -> Ring.push fail_times finish
    | _ -> ()
  in
  let rec advance t =
    if !nbusy > 0 then begin
      let e = !busy.(!nbusy - 1) in
      let finish = e.e_finish in
      if finish <= t then begin
        decr nbusy;
        record_completion finish e;
        (match dequeue () with
        | Some q -> start_session ~at:finish q
        | None -> ());
        advance t
      end
    end
  in
  (* completions are recorded in finish order and arrivals come in time
     order, so the failures that left the window are at the front *)
  let degraded_at t =
    match cfg.degradation with
    | None -> false
    | Some d ->
        while
          (not (Ring.is_empty fail_times))
          && Ring.front fail_times <= t -. d.window
        do
          ignore (Ring.pop_front fail_times)
        done;
        Ring.length fail_times >= d.storm_failures
  in
  let class_capacity ~degraded d cls =
    if not degraded then cfg.queue_capacity
    else
      match cls with
      | Policy.Paying -> cfg.queue_capacity
      | Policy.Standard ->
          int_of_float (float_of_int cfg.queue_capacity *. d.reserve)
      | Policy.Suspect -> 0
  in
  List.iter
    (fun (o : Session.outcome) ->
      let t = o.Session.spec.Session.arrival in
      advance t;
      let degraded = degraded_at t in
      if degraded then incr degraded_arrivals;
      let decision =
        match policy with
        | None -> Policy.Admit
        | Some p ->
            Policy.decide p ~client:o.Session.spec.Session.client ~now:t
      in
      (match decision with
      | Policy.Reject_quarantine -> rejected := (o, Quarantine) :: !rejected
      | Policy.Reject_backoff _ -> rejected := (o, Backoff) :: !rejected
      | Policy.Admit ->
          let cls = cls_of policy o in
          incr seq;
          let admitted ~tag =
            let e =
              {
                e_outcome = o;
                e_cls = cls;
                e_seq = !seq;
                e_tag = tag;
                e_finish = 0.;
                e_served = None;
              }
            in
            order := e :: !order;
            e
          in
          let svc = o.Session.service_cycles in
          if !nbusy < workers then start_session ~at:t (admitted ~tag:0.)
          else begin
            let cap =
              match cfg.degradation with
              | Some d -> class_capacity ~degraded d cls
              | None -> cfg.queue_capacity
            in
            if !nqueue < cap then
              enqueue (admitted ~tag:(tag_of ~svc ~seq:!seq cls))
            else if wfq then
              match evict_below cls with
              | Some v ->
                  shed := (v.e_outcome, v.e_cls) :: !shed;
                  enqueue (admitted ~tag:(tag_of ~svc ~seq:!seq cls))
              | None -> shed := (o, cls) :: !shed
            else shed := (o, cls) :: !shed
          end);
      let open_now = !nbusy + !nqueue in
      if open_now > !peak_open then peak_open := open_now)
    outcomes;
  advance Float.infinity;
  (* [order] is reversed, so prepending restores admission order;
     entries evicted from the queue never started and are already
     recorded as shed *)
  let served =
    List.fold_left
      (fun acc e -> match e.e_served with Some s -> s :: acc | None -> acc)
      [] !order
  in
  {
    served;
    shed = List.rev !shed;
    rejected = List.rev !rejected;
    dropped;
    peak_open = !peak_open;
    makespan = !makespan;
    degraded = !degraded_arrivals;
    policy = Option.map Policy.stats policy;
  }

(* ------------------------------------------------------------------ *)

let rec shards_of n = function
  | [] -> []
  | specs ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) (x :: acc) rest
      in
      let shard, rest = take n [] specs in
      shard :: shards_of n rest

(* Every tenant instance the schedule names, keyed by tenant name and
   built as one pool wave (one job per tenant) before any shard starts,
   so shard jobs only read the table.  Each app's program is forced
   first, on the submitting domain: two domains forcing one [Lazy.t]
   raise [Lazy.Undefined], and two tenants may share an app. *)
let prepare_all pool tenants specs =
  let seen = Hashtbl.create 16 and distinct = ref [] in
  let add (t : Tenant.t) =
    if not (Hashtbl.mem seen t.Tenant.name) then begin
      Hashtbl.replace seen t.Tenant.name ();
      distinct := t :: !distinct
    end
  in
  List.iter add tenants;
  List.iter (fun (s : Session.spec) -> add s.Session.tenant) specs;
  let distinct = List.rev !distinct in
  List.iter
    (fun (t : Tenant.t) -> ignore (Lazy.force t.Tenant.app.Apps.Sessions.sprogram))
    distinct;
  let applied =
    Sched.Pool.run_all pool
      (List.map
         (fun (t : Tenant.t) ->
           Sched.Job.v ~id:("serve/tenant-" ^ t.Tenant.name) (fun () -> Tenant.prepare t))
         distinct)
  in
  let table = Hashtbl.create 16 in
  List.iter2 (fun (t : Tenant.t) a -> Hashtbl.replace table t.Tenant.name a) distinct applied;
  table

let execute ?(pool = Sched.Pool.sequential) ~backend ?(config = default)
    tenants specs =
  let applied = prepare_all pool tenants specs in
  let shards = shards_of (max 1 config.shard) specs in
  let jobs =
    List.mapi
      (fun i shard ->
        Sched.Job.v ~id:(Printf.sprintf "serve/shard-%04d" i) (fun () ->
            List.map
              (fun (s : Session.spec) ->
                Session.run ~backend
                  ~applied:(Hashtbl.find applied s.Session.tenant.Tenant.name)
                  s)
              shard))
      shards
  in
  let outcomes =
    match (config.timeout, config.retries) with
    | None, 0 ->
        (* no supervision requested: run on the pool's queue workers
           (run_all_outcomes spawns a fresh domain per attempt, which
           oversubscribes the host and thrashes the multicore GC) *)
        List.map (fun r -> Sched.Job.Ok r) (Sched.Pool.run_all pool jobs)
    | _ ->
        Sched.Pool.run_all_outcomes ?timeout:config.timeout
          ~retries:config.retries pool jobs
  in
  let executed, dropped =
    List.fold_left2
      (fun (ex, dr) shard outcome ->
        match outcome with
        | Sched.Job.Ok os -> (os :: ex, dr)
        | Sched.Job.Timed_out | Sched.Job.Failed _ -> (ex, shard :: dr))
      ([], []) shards outcomes
  in
  (List.concat (List.rev executed), List.concat (List.rev dropped))

let run ?pool ~backend ?(config = default) tenants specs =
  let executed, dropped = execute ?pool ~backend ~config tenants specs in
  admit ~dropped config executed
