(* The final 8-byte value of global [g]; [Invalid_argument] when the
   build does not define it. *)
let final_global (st : Machine.Exec.state) g =
  Machine.Memory.load st.mem ~width:8 (Machine.Exec.global_addr st g)

(* What the length-matched benign input prints under the same seed: the
   baseline an [Output_differs] goal is judged against. *)
let benign_output ~backend applied ~seed chunks =
  let chunks = List.map (fun c -> String.make (String.length c) 'A') chunks in
  let _, stats = Apps.Runner.run_chunks ~backend applied ~seed ~chunks in
  stats.Machine.Exec.output

let run_chain ~backend (applied : Defenses.Defense.applied) (chain : Chain.t)
    ~seed =
  match Payload.lower applied chain ~seed with
  | exception Invalid_argument _ -> Attacks.Verdict.No_effect
  | chunks -> (
      let kept = ref None in
      match
        let outcome, stats =
          Apps.Runner.run_chunks ~backend
            ~arm:(fun st -> kept := Some st)
            applied ~seed ~chunks
        in
        let final =
          match chain.goal with
          | Chain.Flip_global (g, _) -> Some (final_global (Option.get !kept) g)
          | _ -> None
        in
        (outcome, stats, final)
      with
      | exception Invalid_argument _ ->
          (* a goal global the build doesn't define *)
          Attacks.Verdict.No_effect
      | outcome, stats, final ->
          let goal_met =
            match chain.goal with
            | Chain.Flip_global (_, c) -> final = Some c
            | Chain.Output_contains m -> Apps.Dopkit.goal_in_output m stats
            | Chain.Output_differs ->
                not
                  (String.equal stats.Machine.Exec.output
                     (benign_output ~backend applied ~seed chunks))
          in
          Attacks.Verdict.classify outcome ~goal_met)

(* ------------------------------------------------------------------ *)
(* Disclosure-guided delivery.

   Convention with the leak analyzer ({!Analysis.Leakan} /
   {!Plan.leak_guides}): a disclosing target prints the absolute
   addresses of [disclosed] slots — one integer line each, in that
   order — before its first read.  Per-invocation randomization makes
   stale addresses worthless, so the attacker must parse them and craft
   the payload inside the same session: this runner does exactly that
   with an adaptive input callback. *)

let parse_disclosures out n =
  let lines = String.split_on_char '\n' out in
  let rec take k = function
    | _ when k = 0 -> Some []
    | [] -> None
    | l :: rest -> (
        match Int64.of_string_opt (String.trim l) with
        | Some v -> Option.map (fun t -> v :: t) (take (k - 1) rest)
        | None -> None)
  in
  take n lines

let run_chain_guided ~backend (applied : Defenses.Defense.applied)
    (chain : Chain.t) ~disclosed ~seed =
  let chunks_ref = ref None in
  let delivered = ref [] in
  let state_ref = ref None in
  let craft (st : Machine.Exec.state) =
    let out = Buffer.contents st.Machine.Exec.output in
    match parse_disclosures out (List.length disclosed) with
    | None -> []  (* the target never disclosed: nothing to aim with *)
    | Some addrs -> (
        let pairs = List.combine disclosed addrs in
        match List.assoc_opt chain.buffer pairs with
        | None -> []
        | Some base -> (
            (* differences of disclosed addresses are base-invariant
               buffer-relative offsets — the exact quantities the
               Algorithm-1 guess would otherwise have to hit *)
            let pinned =
              List.filter_map
                (fun (v, a) ->
                  if v = chain.buffer then None
                  else Some (v, Int64.to_int (Int64.sub a base)))
                pairs
            in
            match Payload.lower_pinned applied chain ~pinned ~seed with
            | exception Invalid_argument _ -> []
            | cs -> cs))
  in
  let input st max =
    (match !chunks_ref with
    | Some _ -> ()
    | None -> chunks_ref := Some (craft st));
    match !chunks_ref with
    | Some (c :: rest) ->
        chunks_ref := Some rest;
        delivered := c :: !delivered;
        if String.length c > max then String.sub c 0 max else c
    | _ -> ""
  in
  match
    Apps.Runner.run_adaptive ~backend
      ~arm:(fun st -> state_ref := Some st)
      applied ~seed ~input
  with
  | exception Invalid_argument _ -> Attacks.Verdict.No_effect
  | outcome, stats ->
      let goal_met =
        match chain.goal with
        | Chain.Flip_global (g, c) -> (
            match !state_ref with
            | None -> false
            | Some st -> (
                match final_global st g with
                | v -> v = c
                | exception Invalid_argument _ -> false))
        | Chain.Output_contains m -> Apps.Dopkit.goal_in_output m stats
        | Chain.Output_differs -> (
            match benign_output ~backend applied ~seed (List.rev !delivered) with
            | exception Invalid_argument _ -> false
            | benign -> not (String.equal stats.Machine.Exec.output benign))
      in
      Attacks.Verdict.classify outcome ~goal_met

let brute_guided ~backend applied chain ~disclosed ~budget ~seed0 =
  (Attacks.Bruteforce.run ~seed0 ~max_attempts:budget (fun seed ->
       run_chain_guided ~backend applied chain ~disclosed
         ~seed:(Int64.of_int seed)))
    .verdicts

let trials ~backend applied chain ~n ~seed0 =
  List.init n (fun i ->
      run_chain ~backend applied chain ~seed:(Int64.of_int (seed0 + (1000 * i))))

let brute ~backend applied chain ~budget ~seed0 =
  (Attacks.Bruteforce.run ~seed0 ~max_attempts:budget (fun seed ->
       run_chain ~backend applied chain ~seed:(Int64.of_int seed)))
    .verdicts
