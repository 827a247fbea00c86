(* Dispatch.admit as it was before the per-class FIFO rewrite, kept
   verbatim as the reference model for the differential property in
   test_server.ml: one wait queue kept sorted by (tag, seq) through
   list insertion, a fold for the WFQ eviction victim and a filter to
   remove it. *)

open Server
open Dispatch

type entry = {
  e_outcome : Session.outcome;
  e_cls : Policy.cls;
  e_seq : int;
  e_tag : float;  (* SCFQ finish tag (Wfq); enqueue sequence (Fcfs) *)
  s : served option ref;  (* filled at start time, admission order kept *)
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

let admit ?(dropped = []) cfg outcomes =
  let workers = max 1 cfg.virtual_workers in
  let policy = Option.map Policy.create cfg.policy in
  let wp, ws, wu = cfg.weights in
  let weight = function
    | Policy.Paying -> float_of_int (max 1 wp)
    | Policy.Standard -> float_of_int (max 1 ws)
    | Policy.Suspect -> float_of_int (max 1 wu)
  in
  (* busy handlers: (finish, seq, entry), ascending by (finish, seq) *)
  let busy = ref [] in
  let nbusy = ref 0 in
  let queue = ref [] in
  let nqueue = ref 0 in
  let order = ref [] in  (* admitted entries, admission order (reversed) *)
  let shed = ref [] in
  let rejected = ref [] in
  let seq = ref 0 in
  let vclock = ref 0. in
  let class_tag = [| 0.; 0.; 0. |] in
  let fail_times = ref [] in
  let peak_open = ref 0 in
  let makespan = ref 0. in
  let degraded_arrivals = ref 0 in
  let next_seq () =
    incr seq;
    !seq
  in
  let rec insert_busy x = function
    | [] -> [ x ]
    | ((f, s, _) as y) :: rest ->
        let fx, sx, _ = x in
        if (fx, sx) < (f, s) then x :: y :: rest else y :: insert_busy x rest
  in
  let start_session ~at e =
    let finish = at +. e.e_outcome.Session.service_cycles in
    busy := insert_busy (finish, e.e_seq, e) !busy;
    incr nbusy;
    e.s := Some { outcome = e.e_outcome; start = at; finish; cls = e.e_cls };
    if finish > !makespan then makespan := finish
  in
  let enqueue ~svc e =
    let e =
      match cfg.discipline with
      | Fcfs -> { e with e_tag = float_of_int e.e_seq }
      | Wfq ->
          let i = 2 - Policy.cls_rank e.e_cls in
          let tag =
            Float.max !vclock class_tag.(i) +. (svc /. weight e.e_cls)
          in
          class_tag.(i) <- tag;
          { e with e_tag = tag }
    in
    let rec ins = function
      | [] -> [ e ]
      | y :: rest ->
          if (e.e_tag, e.e_seq) < (y.e_tag, y.e_seq) then e :: y :: rest
          else y :: ins rest
    in
    queue := ins !queue;
    incr nqueue
  in
  let dequeue () =
    match !queue with
    | [] -> None
    | e :: rest ->
        queue := rest;
        decr nqueue;
        if cfg.discipline = Wfq then vclock := e.e_tag;
        Some e
  in
  (* evict the lowest-ranked queued session, latest-served first among
     equals; only strictly lower-ranked sessions are eviction fodder *)
  let evict_below cls =
    let victim =
      List.fold_left
        (fun acc e ->
          if Policy.cls_rank e.e_cls >= Policy.cls_rank cls then acc
          else
            match acc with
            | None -> Some e
            | Some v ->
                if
                  Policy.cls_rank e.e_cls < Policy.cls_rank v.e_cls
                  || Policy.cls_rank e.e_cls = Policy.cls_rank v.e_cls
                     && (e.e_tag, e.e_seq) > (v.e_tag, v.e_seq)
                then Some e
                else acc)
        None !queue
    in
    match victim with
    | None -> None
    | Some v ->
        queue := List.filter (fun e -> e.e_seq <> v.e_seq) !queue;
        decr nqueue;
        Some v
  in
  let record_completion finish (e : entry) =
    let failure = Policy.failure_verdict e.e_outcome.Session.verdict in
    (match policy with
    | Some p ->
        Policy.observe p ~client:e.e_outcome.Session.spec.Session.client
          ~now:finish ~failure
    | None -> ());
    if failure && cfg.degradation <> None then
      fail_times := finish :: !fail_times
  in
  let rec advance t =
    match !busy with
    | (finish, _, e) :: rest when finish <= t ->
        busy := rest;
        decr nbusy;
        record_completion finish e;
        (match dequeue () with
        | Some q -> start_session ~at:finish q
        | None -> ());
        advance t
    | _ -> ()
  in
  let degraded_at t =
    match cfg.degradation with
    | None -> false
    | Some d ->
        fail_times := List.filter (fun f -> f > t -. d.window) !fail_times;
        List.length !fail_times >= d.storm_failures
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
          let e =
            {
              e_outcome = o;
              e_cls = cls;
              e_seq = next_seq ();
              e_tag = 0.;
              s = ref None;
            }
          in
          if !nbusy < workers then begin
            order := e :: !order;
            start_session ~at:t e
          end
          else begin
            let cap =
              match cfg.degradation with
              | Some d -> class_capacity ~degraded d cls
              | None -> cfg.queue_capacity
            in
            if !nqueue < cap then begin
              order := e :: !order;
              enqueue ~svc:o.Session.service_cycles e
            end
            else if cfg.discipline = Wfq then
              match evict_below cls with
              | Some v ->
                  shed := (v.e_outcome, v.e_cls) :: !shed;
                  order := e :: !order;
                  enqueue ~svc:o.Session.service_cycles e
              | None -> shed := (o, cls) :: !shed
            else shed := (o, cls) :: !shed
          end);
      let open_now = !nbusy + !nqueue in
      if open_now > !peak_open then peak_open := open_now)
    outcomes;
  advance Float.infinity;
  let served =
    List.rev !order
    |> List.filter_map (fun e ->
           match !(e.s) with
           | Some s -> Some s
           | None ->
               (* evicted from the queue: already recorded as shed *)
               None)
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
