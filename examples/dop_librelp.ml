(* The paper's §II-C story, end to end: a real-world-modeled DOP exploit
   (librelp CVE-2018-1000140) walks through every prior stack-layout
   randomization and dies against Smokestack.

     dune exec examples/dop_librelp.exe *)

let pf fmt = Format.printf (fmt ^^ "@.")

let show verdict =
  match verdict with
  | Attacks.Verdict.Success -> "EXPLOITED — private key on the wire"
  | v -> "blocked (" ^ Attacks.Verdict.to_string v ^ ")"

(* every run here is on the reference interpreter *)
let backend = Machine.Backend.reference
let attack_static applied ~seed =
  (Apps.Librelp.attack_static ~backend applied ~seed).verdict

let () =
  let prog = Lazy.force Apps.Librelp.program in
  pf "mini-librelp: RELP listener checking TLS peer names.";
  pf "The bug: iAllNames += snprintf(allNames + iAllNames, sizeof - iAllNames, ...)";
  pf "Once iAllNames crosses the buffer, the size goes negative -> size_t -> unbounded,";
  pf "and the attacker controls the landing offset: a non-linear overflow.@.";

  (* benign service *)
  let applied = Defenses.Defense.apply Defenses.Defense.No_defense prog in
  let _, stats =
    Apps.Runner.run_chunks ~backend applied ~seed:1L ~chunks:Apps.Librelp.benign_chunks
  in
  pf "benign run (certificate matches): log = %S@." (String.trim stats.output);

  pf "The exploit: pad the SAN accumulator to a computed jump point, overshoot";
  pf "the 4 KiB buffer, land 3 bytes exactly on the CALLER's keyPtr, and let the";
  pf "session loop (the DOP gadget dispatcher) stream the private key into the log.@.";

  let rate attack applied =
    let n = 8 in
    let ok = ref 0 in
    for i = 0 to n - 1 do
      match attack applied ~seed:(Int64.of_int (7 + (100 * i))) with
      | Attacks.Verdict.Success -> incr ok
      | _ -> ()
    done;
    (!ok, n)
  in
  List.iter
    (fun d ->
      let applied = Defenses.Defense.apply ~seed:3L d prog in
      let sr, n = rate attack_static applied in
      let dr, _ = rate (Apps.Librelp.attack_disclosure ~backend) applied in
      let describe k =
        if k = n then show Attacks.Verdict.Success
        else if k = 0 then "blocked on all attempts"
        else Printf.sprintf "exploited on %d/%d attempts (layout luck)" k n
      in
      pf "%-22s binary-analysis:  %s" (Defenses.Defense.name d) (describe sr);
      pf "%-22s probe+disclosure: %s" "" (describe dr))
    (Defenses.Defense.all ());

  pf "@.static-perm is fixed per build — how many builds fall to pure binary analysis?";
  let exploitable = ref 0 in
  let builds = 10 in
  for b = 0 to builds - 1 do
    let applied =
      Defenses.Defense.apply ~seed:(Int64.of_int (50 + b))
        Defenses.Defense.Static_perm prog
    in
    match attack_static applied ~seed:7L with
    | Attacks.Verdict.Success -> incr exploitable
    | _ -> ()
  done;
  pf "  %d/%d builds exploitable on the first try (and a build never re-randomizes)."
    !exploitable builds;

  pf "@.Smokestack under brute force (service restarts after each crash):";
  let applied =
    Defenses.Defense.apply ~seed:3L
      (Defenses.Defense.Smokestack Smokestack.Config.default)
      prog
  in
  let result =
    Attacks.Bruteforce.run ~seed0:4000 ~max_attempts:300 (fun seed ->
        attack_static applied ~seed:(Int64.of_int seed))
  in
  pf "  %s after %d attempt(s): %s"
    (if result.succeeded then "first success" else "no success")
    result.attempts
    (Attacks.Verdict.summarize result.verdicts);
  pf "  …and each success is one invocation only: the next call re-randomizes."

(* The two extension experiments, live: *)
let () =
  let prog = Lazy.force Apps.Librelp.program in
  pf "@.Why the randomness source matters (E10): disclose the pseudo scheme's";
  pf "in-memory state word, run the xorshift BACKWARDS, replay the draws that";
  pf "laid out the live frames, and exploit within the same invocation:";
  List.iter
    (fun scheme ->
      let config =
        Smokestack.Config.with_scheme scheme Smokestack.Config.default
      in
      let applied =
        Defenses.Defense.apply ~seed:3L (Defenses.Defense.Smokestack config) prog
      in
      let ok = ref 0 in
      let n = 6 in
      for i = 0 to n - 1 do
        match
          Apps.Librelp.attack_pseudo_state ~backend applied
            ~seed:(Int64.of_int (60 + i))
        with
        | Attacks.Verdict.Success -> incr ok
        | _ -> ()
      done;
      pf "  %-7s %d/%d runs end with the key on the wire"
        (Rng.Scheme.name scheme) !ok n)
    Rng.Scheme.all;

  pf "@.Why PER-INVOCATION matters (E11): probe the live layout, exploit a later";
  pf "invocation of the same process — against variants that redraw every n-th request:";
  List.iter
    (fun interval ->
      let config =
        { Smokestack.Config.default with redraw_interval = interval }
      in
      let applied =
        Defenses.Defense.apply ~seed:3L (Defenses.Defense.Smokestack config) prog
      in
      let ok = ref 0 in
      let n = 8 in
      for i = 0 to n - 1 do
        match
          Apps.Librelp.attack_probe_then_exploit ~backend applied
            ~seed:(Int64.of_int (80 + i))
        with
        | Attacks.Verdict.Success -> incr ok
        | _ -> ()
      done;
      pf "  redraw every %-3d %d/%d" interval !ok n)
    [ 1; 8; 64 ]
