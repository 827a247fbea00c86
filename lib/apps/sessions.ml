type attack = { aname : string; attack : Dopkit.attack }

type app = {
  sname : string;
  sdescription : string;
  sprogram : Ir.Prog.t Lazy.t;
  benign : Sutil.Simrng.t -> string list;
  sattacks : attack list;
}

let run_benign ~backend ?arm applied ~seed ~chunks : Dopkit.result =
  let outcome, stats = Runner.run_chunks ~backend ?arm applied ~seed ~chunks in
  {
    verdict = Attacks.Verdict.classify outcome ~goal_met:false;
    stats = Some stats;
    requests = List.length chunks;
  }

(* ------------------------------------------------------------------ *)
(* Benign request flows.  Sizes are chosen to stay inside each target's
   legitimate envelope: proftpd commands must keep [512 - n*8] positive
   in sreplace (n <= 63 bytes); wireshark's capture loop consumes one
   frame of at most 255 bytes; the synthetic servers read into 64-byte
   buffers; librelp SANs just need to stay short and end on a name the
   peer check accepts. *)

let proftpd_flow rng =
  let middle () =
    match Sutil.Simrng.int rng ~bound:5 with
    | 0 -> Printf.sprintf "CWD /srv/data/%02d" (Sutil.Simrng.int rng ~bound:100)
    | 1 -> Printf.sprintf "RETR file-%03d.dat" (Sutil.Simrng.int rng ~bound:1000)
    | 2 -> "LIST"
    | 3 -> "NOOP"
    | _ -> "PWD"
  in
  let n = 2 + Sutil.Simrng.int rng ~bound:5 in
  [ "USER alice"; "PASS hunter2" ]
  @ List.init n (fun _ -> middle ())
  @ [ "QUIT" ]

let wireshark_flow rng =
  let len = 16 + Sutil.Simrng.int rng ~bound:181 in
  [ String.init len (fun _ -> Char.chr (32 + Sutil.Simrng.int rng ~bound:95)) ]

let librelp_flow rng =
  let extra = Sutil.Simrng.int rng ~bound:3 in
  List.init extra (fun _ ->
      Printf.sprintf "host%02d.example.net" (Sutil.Simrng.int rng ~bound:100))
  @ Librelp.benign_chunks

let synth_flow rng =
  let n = 1 + Sutil.Simrng.int rng ~bound:8 in
  List.init n (fun _ ->
      Printf.sprintf "req-%04x" (Sutil.Simrng.int rng ~bound:65536))

(* ------------------------------------------------------------------ *)
(* The registry.  Attack names match the batch cross-validation harness
   (Harness.Crossval), and each entry is the attack function the batch
   harnesses run, so served verdicts compare case-for-case. *)

let apps =
  [
    {
      sname = "proftpd";
      sdescription = "FTP session: login, a few transfers, quit";
      sprogram = Proftpd.program;
      benign = proftpd_flow;
      sattacks =
        [
          { aname = "proftpd/key-extraction"; attack = Proftpd.attack_key_extraction };
          { aname = "proftpd/bot"; attack = Proftpd.attack_bot };
          { aname = "proftpd/mem-permissions"; attack = Proftpd.attack_memperm };
        ];
    };
    {
      sname = "wireshark";
      sdescription = "capture session: one dissected frame";
      sprogram = Wireshark.program;
      benign = wireshark_flow;
      sattacks = [ { aname = "wireshark/CVE-2014-2299"; attack = Wireshark.attack } ];
    };
    {
      sname = "librelp";
      sdescription = "TLS peer check over a client certificate's SANs";
      sprogram = Librelp.program;
      benign = librelp_flow;
      sattacks = [ { aname = "librelp/key-leak"; attack = Librelp.attack_static } ];
    };
  ]
  @ List.map
      (fun (v : Synth.variant) ->
        {
          sname = "synth-" ^ v.vname;
          sdescription = "synthetic request server (" ^ v.vname ^ ")";
          sprogram = v.program;
          benign = synth_flow;
          sattacks = [ { aname = v.vname; attack = v.attack } ];
        })
      Synth.variants

let find name = List.find_opt (fun a -> String.equal a.sname name) apps

let attacks =
  List.concat_map (fun app -> List.map (fun atk -> (app, atk)) app.sattacks) apps

let find_attack aname =
  List.find_opt (fun (_, atk) -> String.equal atk.aname aname) attacks
