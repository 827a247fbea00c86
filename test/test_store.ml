(* Tests for the artifact store (lib/store): content-addressed keys,
   versioned entry codecs with bit-exact floats, the crash-safe disk
   backend (an append-only log of digest-checked records, corruption
   quarantined as a miss, torn tails ignored), and the
   campaign runner's headline invariants — warm replay and resume both
   render byte-identical reports. *)

module Cache = Store.Cache
module Key = Store.Key
module Entry = Store.Entry
module Campaign = Store.Campaign

(* ------------------------------------------------------------------ *)
(* Temp directories (no Unix dependency beyond getpid) *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "smokestack-test-store-%d-%d" (Unix.getpid ())
       !tmp_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_disk_store f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (Cache.open_disk dir) dir)

(* ------------------------------------------------------------------ *)
(* Keys *)

let base_key ?(source_text = "int main() { return 0; }") ?config
    ?(engine = Machine.Backend.Reference) ?(seed = 7L) ?(extra = "t") () =
  Key.of_source ~source_text ~config ~engine ~seed ~extra ()

let test_key_deterministic () =
  let k1 = base_key () and k2 = base_key () in
  Alcotest.(check bool) "equal" true (Key.equal k1 k2);
  Alcotest.(check string) "same id" (Key.id k1) (Key.id k2);
  Alcotest.(check string) "same rendering" (Key.to_string k1)
    (Key.to_string k2)

(* Ids must stay byte-identical across releases, or every stored record
   becomes a miss: pinned digests, plus the length-prefixed framing
   checked against a plain [Buffer] rendering of it. *)
let test_key_ids_pinned () =
  Alcotest.(check string) "base key id" "2a13bb42c1cfa3e688c1b0b47904ad31"
    (Key.id (base_key ()));
  let framed parts =
    let b = Buffer.create 16 in
    List.iter
      (fun p ->
        Buffer.add_string b (string_of_int (String.length p));
        Buffer.add_char b ':';
        Buffer.add_string b p)
      parts;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let parts =
    [ ""; String.make 9 'a'; String.make 10 'b'; String.make 100 'c';
      String.make 1000 'd' ]
  in
  Alcotest.(check string) "parts digest" "76c86b6ceef1358821a8f0bb6d39a973"
    (Store.Hash.hex_of_parts parts);
  List.iter
    (fun parts ->
      Alcotest.(check string) "framing" (framed parts)
        (Store.Hash.hex_of_parts parts))
    [ []; [ "" ]; [ ""; "" ]; [ "ab"; "c" ]; [ "a"; "bc" ]; parts;
      List.init 12 (fun i -> String.make (i * i * 7) 'x') ]

let test_key_distinct_per_field () =
  let variants =
    [
      ("base", base_key ());
      ("source", base_key ~source_text:"int main() { return 1; }" ());
      ("config", base_key ~config:Smokestack.Config.default ());
      ( "config'",
        base_key
          ~config:(Smokestack.Config.with_selective true Smokestack.Config.default)
          () );
      ("engine", base_key ~engine:Machine.Backend.Bytecode ());
      ("seed", base_key ~seed:8L ());
      ("extra", base_key ~extra:"t2" ());
    ]
  in
  List.iteri
    (fun i (ni, ki) ->
      List.iteri
        (fun j (nj, kj) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s vs %s ids differ" ni nj)
              false
              (String.equal (Key.id ki) (Key.id kj)))
        variants)
    variants

let test_key_json_roundtrip () =
  let k = base_key ~config:Smokestack.Config.default ~seed:(-3L) () in
  match Key.of_json (Key.to_json k) with
  | None -> Alcotest.fail "key did not round-trip through JSON"
  | Some k' -> Alcotest.(check bool) "round-tripped key equal" true (Key.equal k k')

(* ------------------------------------------------------------------ *)
(* Entry codecs *)

let sample_stats =
  {
    Machine.Exec.cycles = 0.1 +. 0.2 (* not exactly representable as text *);
    instr_count = 12345;
    call_count = 678;
    max_depth = 9;
    max_frame_bytes = 256;
    rss_bytes = 4096;
    output = "hello\n\xE2\x98\x83 \"quoted\"";
  }

let sample_exec =
  {
    Entry.outcome = "exit 0";
    exit_code = Some 0L;
    stats = sample_stats;
    pbox_bytes = Some 192;
  }

let check_exec_equal msg (a : Entry.exec) (b : Entry.exec) =
  Alcotest.(check string) (msg ^ ": outcome") a.outcome b.outcome;
  Alcotest.(check (option int64)) (msg ^ ": exit code") a.exit_code b.exit_code;
  Alcotest.(check int64)
    (msg ^ ": cycles bit-exact")
    (Int64.bits_of_float a.stats.cycles)
    (Int64.bits_of_float b.stats.cycles);
  Alcotest.(check int) (msg ^ ": instrs") a.stats.instr_count b.stats.instr_count;
  Alcotest.(check int) (msg ^ ": calls") a.stats.call_count b.stats.call_count;
  Alcotest.(check int) (msg ^ ": depth") a.stats.max_depth b.stats.max_depth;
  Alcotest.(check int)
    (msg ^ ": frame") a.stats.max_frame_bytes b.stats.max_frame_bytes;
  Alcotest.(check int) (msg ^ ": rss") a.stats.rss_bytes b.stats.rss_bytes;
  Alcotest.(check string) (msg ^ ": output") a.stats.output b.stats.output;
  Alcotest.(check (option int)) (msg ^ ": pbox") a.pbox_bytes b.pbox_bytes

let test_exec_codec_roundtrip () =
  match Entry.exec_of_entry (Entry.exec_entry sample_exec) with
  | None -> Alcotest.fail "exec entry did not decode"
  | Some e -> check_exec_equal "round-trip" sample_exec e

let test_exec_codec_version_mismatch_is_miss () =
  let entry = Entry.exec_entry sample_exec in
  let future = { entry with Entry.version = entry.Entry.version + 1 } in
  Alcotest.(check bool)
    "future version decodes to None" true
    (Option.is_none (Entry.exec_of_entry future));
  let foreign = { entry with Entry.kind = "something-else" } in
  Alcotest.(check bool)
    "foreign kind decodes to None" true
    (Option.is_none (Entry.exec_of_entry foreign))

let test_verdicts_codec_roundtrip () =
  let verdicts =
    [ ("detected", "permuted slot"); ("crashed", "fault in f: oob"); ("no-effect", "") ]
  in
  Alcotest.(check (option (list (pair string string))))
    "verdicts round-trip" (Some verdicts)
    (Entry.verdicts_of_entry (Entry.verdicts_entry verdicts))

(* ------------------------------------------------------------------ *)
(* Disk backend *)

let test_disk_roundtrip_and_counters () =
  with_disk_store @@ fun store _dir ->
  let key = base_key () in
  Alcotest.(check bool) "cold find misses" true (Option.is_none (Cache.find store key));
  Cache.put store key (Entry.exec_entry sample_exec);
  (match Cache.find store key with
  | None -> Alcotest.fail "entry vanished after put"
  | Some e -> (
      match Entry.exec_of_entry e with
      | None -> Alcotest.fail "stored entry did not decode"
      | Some exec -> check_exec_equal "disk round-trip" sample_exec exec));
  let s = Cache.stats store in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "writes" 1 s.Cache.writes;
  Alcotest.(check int) "evicted" 0 s.Cache.evicted;
  Alcotest.(check bool) "mem sees it" true (Cache.mem store key);
  Alcotest.(check bool)
    "mem leaves counters alone" true
    (Cache.stats store = s)

let test_disk_survives_reopen () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let key = base_key () in
  Cache.put (Cache.open_disk dir) key (Entry.exec_entry sample_exec);
  let store = Cache.open_disk dir in
  match Cache.find store key with
  | None -> Alcotest.fail "entry not visible from a second handle"
  | Some e ->
      check_exec_equal "reopened"
        sample_exec
        (Option.get (Entry.exec_of_entry e))

(* The log layout, read back independently of Store.Cache: segment
   paths in name order, and a segment's complete records as
   [(offset, header, body)] plus the count of bytes after the last. *)

let header_len = 77

let segments root =
  let log = Filename.concat root "log" in
  Sys.readdir log |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".log")
  |> List.sort String.compare
  |> List.map (Filename.concat log)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

let records data =
  let n = String.length data in
  let rec go pos acc =
    if pos + header_len > n then (List.rev acc, n - pos)
    else
      let header = String.sub data pos header_len in
      let len = int_of_string (String.sub header 33 10) in
      if pos + header_len + len > n then (List.rev acc, n - pos)
      else
        go (pos + header_len + len)
          ((pos, header, String.sub data (pos + header_len) len) :: acc)
  in
  go 0 []

let only_segment root =
  match segments root with
  | [ seg ] -> seg
  | segs -> Alcotest.failf "expected one segment, found %d" (List.length segs)

let truncate_file path len =
  write_file path (String.sub (read_file path) 0 len)

let test_corrupt_entry_is_quarantined_miss () =
  with_disk_store @@ fun store dir ->
  let key = base_key () in
  Cache.put store key (Entry.exec_entry sample_exec);
  truncate_file (only_segment dir) 17;
  Cache.reset_stats store;
  Alcotest.(check bool)
    "truncated entry is a miss, not a crash" true
    (Option.is_none (Cache.find store key));
  let s = Cache.stats store in
  Alcotest.(check int) "counted as miss" 1 s.Cache.misses;
  Alcotest.(check int) "counted as eviction" 1 s.Cache.evicted;
  Alcotest.(check bool)
    "offending record no longer indexed: a plain miss, no second eviction"
    true
    (Option.is_none (Cache.find store key)
    && (Cache.stats store).Cache.evicted = 1);
  Alcotest.(check bool)
    "quarantine holds it" true
    (Array.length (Sys.readdir (Filename.concat dir "quarantine")) > 0);
  (* the caller recomputes and overwrites; the store heals *)
  Cache.put store key (Entry.exec_entry sample_exec);
  Alcotest.(check bool) "healed" true (Option.is_some (Cache.find store key));
  Alcotest.(check bool)
    "healed for a reopened handle" true
    (Option.is_some (Cache.find (Cache.open_disk dir) key))

let test_key_echo_mismatch_is_miss () =
  with_disk_store @@ fun store dir ->
  let key = base_key () and other = base_key ~extra:"other" () in
  Cache.put store key (Entry.exec_entry sample_exec);
  (* graft key's record onto other's id, digest intact: a hash collision
     or a hand-copied record must never serve the wrong key *)
  let header, body =
    match records (read_file (only_segment dir)) with
    | [ (_, h, b) ], 0 -> (h, b)
    | _ -> Alcotest.fail "expected exactly one complete record"
  in
  write_file
    (Filename.concat (Filename.concat dir "log") "graft.log")
    (Key.id other ^ String.sub header 32 (header_len - 32) ^ body);
  Alcotest.(check bool)
    "foreign entry degraded to a miss" true
    (Option.is_none (Cache.find store other));
  Alcotest.(check int) "counted as eviction" 1 (Cache.stats store).Cache.evicted

let test_incompatible_manifest_version () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "manifest.json") in
  output_string oc "{\"smokestack-store\": 999}\n";
  close_out oc;
  match Cache.open_disk dir with
  | _ -> Alcotest.fail "version-mismatched store opened without complaint"
  | exception Cache.Incompatible msg ->
      Alcotest.(check bool)
        "diagnostic names the version" true
        (contains_substring msg "999")

let test_foreign_directory_rejected () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "unrelated.txt") in
  output_string oc "not a store\n";
  close_out oc;
  Alcotest.(check bool)
    "non-empty non-store directory is refused" true
    (match Cache.open_disk dir with
    | _ -> false
    | exception Cache.Incompatible _ -> true)

let test_concurrent_writers () =
  with_disk_store @@ fun store _dir ->
  let keys = List.init 24 (fun i -> base_key ~seed:(Int64.of_int i) ()) in
  Sched.Pool.with_pool ~jobs:8 @@ fun pool ->
  (* every job writes its own key and one shared key: distinct writers
     must not clobber each other, same-key writers must both succeed *)
  let shared = base_key ~extra:"shared" () in
  ignore
    (Sched.Pool.run_all pool
       (List.mapi
          (fun i key ->
            Sched.Job.v ~id:(string_of_int i) (fun () ->
                Cache.put store key (Entry.exec_entry sample_exec);
                Cache.put store shared (Entry.exec_entry sample_exec)))
          keys));
  List.iteri
    (fun i key ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d readable" i)
        true
        (Option.is_some (Cache.find store key)))
    (shared :: keys);
  Alcotest.(check bool)
    "no partial record left behind" true
    (match Cache.root store with
    | None -> false
    | Some root ->
        List.for_all
          (fun seg ->
            let recs, rest = records (read_file seg) in
            rest = 0
            && List.for_all
                 (fun (_, h, b) ->
                   String.sub h 44 32 = Digest.to_hex (Digest.string b))
                 recs)
          (segments root))

let keys n = List.init n (fun i -> base_key ~seed:(Int64.of_int (100 + i)) ())
let put_all store = List.iter (fun k -> Cache.put store k (Entry.exec_entry sample_exec))
let found store k = Option.is_some (Cache.find store k)

(* A kill -9 mid-put leaves the last record cut at any byte: earlier
   records still hit, the torn one misses, and the writer's next put
   starts a fresh segment instead of appending behind the torn tail. *)
let test_torn_tail_every_offset () =
  let k0, k1, k2 = match keys 3 with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  let seg_len, last =
    with_disk_store @@ fun store dir ->
    put_all store [ k0; k1; k2 ];
    let data = read_file (only_segment dir) in
    match records data with
    | [ _; _; (off, _, _) ], 0 -> (String.length data, off)
    | _ -> Alcotest.fail "expected three complete records"
  in
  for cut = last to seg_len - 1 do
    with_disk_store @@ fun writer dir ->
    put_all writer [ k0; k1; k2 ];
    let seg = only_segment dir in
    truncate_file seg cut;
    let msg what = Printf.sprintf "cut at %d: %s" cut what in
    let reader = Cache.open_disk dir in
    Alcotest.(check bool) (msg "first record hits") true (found reader k0);
    Alcotest.(check bool) (msg "second record hits") true (found reader k1);
    Alcotest.(check bool) (msg "torn record misses") false (found reader k2);
    Alcotest.(check int) (msg "torn tail is not an eviction") 0
      (Cache.stats reader).Cache.evicted;
    Cache.put writer k2 (Entry.exec_entry sample_exec);
    Alcotest.(check int) (msg "torn segment left as it was") cut
      (String.length (read_file seg));
    Alcotest.(check int) (msg "put landed in a fresh segment") 2
      (List.length (segments dir));
    Alcotest.(check bool) (msg "a reopen finds it") true
      (found (Cache.open_disk dir) k2);
    Alcotest.(check bool) (msg "the old reader finds it") true (found reader k2)
  done

let test_taken_segment_name_not_appended () =
  with_disk_store @@ fun store dir ->
  (* the name a fresh handle picks first, already taken by a torn record
     of a process that had this pid before *)
  let taken =
    Filename.concat (Filename.concat dir "log")
      (Printf.sprintf "%d.0.log" (Unix.getpid ()))
  in
  let torn = String.make 40 'f' in
  write_file taken torn;
  let key = base_key () in
  Cache.put store key (Entry.exec_entry sample_exec);
  Alcotest.(check string) "taken segment untouched" torn (read_file taken);
  Alcotest.(check int) "put made its own segment" 2 (List.length (segments dir));
  Alcotest.(check bool) "a reopen finds it" true (found (Cache.open_disk dir) key)

(* A digest-failing copy of an id must not hide a valid copy of the same
   id in another segment, whichever of the two is scanned first. *)
let test_corrupt_copy_never_shadows () =
  let key = base_key () in
  let good =
    with_disk_store @@ fun store dir ->
    Cache.put store key (Entry.exec_entry sample_exec);
    read_file (only_segment dir)
  in
  let bad = String.mapi (fun i c -> if i = String.length good - 3 then 'X' else c) good in
  List.iter
    (fun (first, second, order) ->
      with_disk_store @@ fun _ dir ->
      let log = Filename.concat dir "log" in
      write_file (Filename.concat log "a.log") first;
      write_file (Filename.concat log "b.log") second;
      let store = Cache.open_disk dir in
      Alcotest.(check bool) (order ^ ": valid copy served") true (found store key);
      let reopened = Cache.open_disk dir in
      Alcotest.(check bool) (order ^ ": again from a reopen") true (found reopened key);
      Alcotest.(check int) (order ^ ": no eviction from the reopen") 0
        (Cache.stats reopened).Cache.evicted)
    [ (bad, good, "corrupt first"); (good, bad, "valid first") ]

let test_put_visible_to_earlier_handle () =
  with_disk_store @@ fun early dir ->
  let key = base_key () in
  Alcotest.(check bool) "cold" false (Cache.mem early key);
  Cache.put (Cache.open_disk dir) key (Entry.exec_entry sample_exec);
  Alcotest.(check bool) "mem sees another handle's put" true (Cache.mem early key);
  Alcotest.(check bool) "find serves it" true (found early key)

let test_v1_store_refused () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Sys.mkdir dir 0o755;
  write_file (Filename.concat dir "manifest.json") "{\"smokestack-store\": 1}\n";
  match Cache.open_disk dir with
  | _ -> Alcotest.fail "a version-1 store opened without complaint"
  | exception Cache.Incompatible msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names versions 1 and 2" msg)
        true
        (contains_substring msg "version 1" && contains_substring msg "version 2")

(* Handles are dropped without a close, so no call may leave a
   descriptor open.  Every putting handle adds a segment that the next
   open scans, so the 1000 cycles are spread over ten stores. *)
let test_no_descriptor_leak () =
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let key = base_key () in
  let before = fds () in
  for _ = 1 to 10 do
    with_disk_store @@ fun _ dir ->
    for _ = 1 to 100 do
      let store = Cache.open_disk dir in
      Cache.put store key (Entry.exec_entry sample_exec);
      ignore (Cache.find store key)
    done
  done;
  Alcotest.(check int) "open descriptors unchanged" before (fds ())

(* A record whose header no longer names the id it was indexed under
   (rewritten after the scan) is a miss, even though its body would
   pass every other check. *)
let test_header_id_checked () =
  with_disk_store @@ fun store dir ->
  let key = base_key () and other = base_key ~extra:"other" () in
  Cache.put store key (Entry.exec_entry sample_exec);
  let seg = only_segment dir in
  let data = read_file seg in
  write_file seg (Key.id other ^ String.sub data 32 (String.length data - 32));
  Alcotest.(check bool) "renamed record is a miss" false (found store key);
  Alcotest.(check int) "counted as eviction" 1 (Cache.stats store).Cache.evicted

(* A record that fails its digest is quarantined once: handles opened
   after the eviction skip it, even while it stays in the segment ahead
   of the re-put copy. *)
let test_bit_flip_healed_for_later_handles () =
  with_disk_store @@ fun store dir ->
  let key = base_key () in
  Cache.put store key (Entry.exec_entry sample_exec);
  let seg = only_segment dir in
  let data = read_file seg in
  let flip = String.length data - 3 in
  write_file seg
    (String.mapi (fun i c -> if i = flip then Char.chr (Char.code c lxor 1) else c) data);
  Alcotest.(check bool) "bit-flipped record is a miss" false (found store key);
  Alcotest.(check int) "counted as eviction" 1 (Cache.stats store).Cache.evicted;
  Cache.put store key (Entry.exec_entry sample_exec);
  for n = 1 to 3 do
    let reopened = Cache.open_disk dir in
    let msg what = Printf.sprintf "reopen %d: %s" n what in
    Alcotest.(check bool) (msg "re-put copy served") true (found reopened key);
    Alcotest.(check int) (msg "no eviction") 0 (Cache.stats reopened).Cache.evicted
  done;
  Alcotest.(check int) "one quarantined copy" 1
    (Array.length (Sys.readdir (Filename.concat dir "quarantine")))

(* A pid no process has: the highest one that [kill 0] reports as
   absent. *)
let dead_pid () =
  let pid_max =
    try int_of_string (String.trim (read_file "/proc/sys/kernel/pid_max"))
    with _ -> 32768
  in
  let rec go pid =
    match Unix.kill pid 0 with
    | () -> go (pid - 1)
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> pid
    | exception Unix.Unix_error _ -> go (pid - 1)
  in
  go (pid_max - 1)

(* A segment left by a process that has exited is read in full, by a
   handle opened before it appeared and by a later one, torn tail and
   all. *)
let test_exited_writer_segment_read () =
  let k0, k1 = match keys 2 with [ a; b ] -> (a, b) | _ -> assert false in
  let data =
    with_disk_store @@ fun store dir ->
    put_all store [ k0; k1 ];
    read_file (only_segment dir)
  in
  with_disk_store @@ fun early dir ->
  Alcotest.(check bool) "cold" false (found early k0);
  write_file
    (Filename.concat (Filename.concat dir "log") (Printf.sprintf "%d.0.log" (dead_pid ())))
    (data ^ String.sub data 0 50);
  List.iter
    (fun (who, store) ->
      Alcotest.(check bool) (who ^ ": first record") true (found store k0);
      Alcotest.(check bool) (who ^ ": second record") true (found store k1))
    [ ("earlier handle", early); ("later handle", Cache.open_disk dir) ]

(* ------------------------------------------------------------------ *)
(* Campaigns: warm replay and resume *)

let campaign_n = 12
let campaign_config ?count () =
  Campaign.config ~seed:4200L ~count:(Option.value ~default:campaign_n count) ()

let test_campaign_warm_hits_everything () =
  with_disk_store @@ fun store _dir ->
  let cfg = campaign_config () in
  let cold = Campaign.run ~store cfg in
  let cs = Cache.stats store in
  Alcotest.(check int) "cold misses every key" campaign_n cs.Cache.misses;
  Alcotest.(check int) "cold writes every key" campaign_n cs.Cache.writes;
  Cache.reset_stats store;
  let warm = Campaign.run ~store cfg in
  let ws = Cache.stats store in
  Alcotest.(check int) "warm hits every key" campaign_n ws.Cache.hits;
  Alcotest.(check int) "warm misses nothing" 0 ws.Cache.misses;
  Alcotest.(check int) "warm writes nothing" 0 ws.Cache.writes;
  Alcotest.(check string) "byte-identical digest" cold.Campaign.digest
    warm.Campaign.digest;
  Alcotest.(check bool) "whole report identical" true (cold = warm)

let test_campaign_digest_stable_across_jobs () =
  let digest_with run =
    let store = Cache.in_memory () in
    (run store).Campaign.digest
  in
  let cfg = campaign_config () in
  let seq = digest_with (fun store -> Campaign.run ~store cfg) in
  let par =
    digest_with (fun store ->
        Sched.Pool.with_pool ~jobs:8 @@ fun pool ->
        Campaign.run ~pool ~store cfg)
  in
  Alcotest.(check string) "jobs=8 digest equals sequential" seq par

let test_campaign_remaining () =
  with_disk_store @@ fun store _dir ->
  let half = campaign_config ~count:(campaign_n / 2) () in
  let full = campaign_config () in
  Alcotest.(check int) "everything remains cold" campaign_n
    (Campaign.remaining ~store full);
  ignore (Campaign.run ~store half);
  Alcotest.(check int)
    "half remains after a half run"
    (campaign_n - (campaign_n / 2))
    (Campaign.remaining ~store full);
  ignore (Campaign.run ~store full);
  Alcotest.(check int) "nothing remains warm" 0 (Campaign.remaining ~store full)

(* Pinned from the build that generated sources in the calling domain:
   where and how the campaign compiles, hardens and runs its programs
   may change, its digest may not. *)
let test_campaign_hardened_digest_pinned () =
  let cfg =
    Campaign.config ~seed:4200L ~harden:Smokestack.Config.default ~count:50 ()
  in
  let pinned = "4df81f0f752af6e6ac60f124fe67e8f4" in
  Alcotest.(check string) "sequential" pinned
    (Campaign.run ~store:(Cache.in_memory ()) cfg).Campaign.digest;
  Alcotest.(check string) "jobs=4" pinned
    (Sched.Pool.with_pool ~jobs:4 @@ fun pool ->
     (Campaign.run ~pool ~store:(Cache.in_memory ()) cfg).Campaign.digest)

(* Every record a cold campaign appends reads back through [find] as
   the entry computed for it: records come in seed order, each keyed as
   [Key.of_source] keys its program's source, and the entry [find]
   decodes re-renders to the record's body byte for byte and equals
   what an in-memory run of the same campaign computed. *)
let test_campaign_log_reads_back () =
  with_disk_store @@ fun store dir ->
  let cfg = campaign_config () in
  ignore (Campaign.run ~store cfg);
  let computed = Cache.in_memory () in
  ignore (Campaign.run ~store:computed cfg);
  let bodies =
    List.concat_map
      (fun seg ->
        List.map (fun (_, _, body) -> body) (fst (records (read_file seg))))
      (segments dir)
  in
  let keys =
    List.map
      (fun (_, source_text) ->
        Key.of_source ~source_text ~config:None ~engine:cfg.engine
          ~seed:cfg.exec_seed
          ~extra:(Printf.sprintf "campaign;fuel=%d;hseed=3" cfg.fuel)
          ())
      (List.of_seq (Minic.Progen.range ~seed:cfg.seed campaign_n))
  in
  Alcotest.(check int) "one record per program" campaign_n (List.length bodies);
  let render key e = Sutil.Json.to_string (Entry.to_json ~key e) ^ "\n" in
  List.iteri
    (fun i (key, body) ->
      let what = Printf.sprintf "record %d" i in
      (match Result.map Entry.of_json (Sutil.Json.of_string body) with
      | Ok (Some (k, _)) ->
          Alcotest.(check string) (what ^ " key") (Key.to_string key)
            (Key.to_string k)
      | _ -> Alcotest.failf "%s does not parse" what);
      match (Cache.find store key, Cache.find computed key) with
      | Some e, Some c ->
          Alcotest.(check string) (what ^ " read back") body (render key e);
          Alcotest.(check string) (what ^ " as computed") (render key c)
            (render key e)
      | _ -> Alcotest.failf "%s not found" what)
    (List.combine keys bodies)

(* The resume property: killing a campaign after any prefix of the work
   and re-running over the same store yields the digest of an
   uninterrupted run.  A [count = k] run over a shared store is exactly
   the state a kill after k programs leaves behind (a real SIGKILL, and
   the torn record it may leave, is test_cli's smoke-store
   kill-and-resume case). *)
let test_campaign_resume_property () =
  let reference =
    (Campaign.run ~store:(Cache.in_memory ()) (campaign_config ())).Campaign.digest
  in
  let prop k =
    let store = Cache.in_memory () in
    if k > 0 then ignore (Campaign.run ~store (campaign_config ~count:k ()));
    let resumed = Campaign.run ~store (campaign_config ()) in
    String.equal resumed.Campaign.digest reference
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:8 ~name:"resume digest equals uninterrupted"
       QCheck.(int_bound campaign_n)
       prop)

(* ------------------------------------------------------------------ *)
(* Workbench integration: stats are a function of the key, not of
   which store instance served them *)

let test_workbench_stats_store_independent () =
  let w = List.hd Apps.Spec.all in
  Harness.Workbench.force_programs [ w ];
  let s1 = Harness.Workbench.baseline ~backend:Machine.Backend.reference ~store:(Cache.in_memory ()) w in
  let s2 = Harness.Workbench.baseline ~backend:Machine.Backend.reference ~store:(Cache.in_memory ()) w in
  Alcotest.(check int64)
    "baseline cycles bit-identical across stores"
    (Int64.bits_of_float s1.Machine.Exec.cycles)
    (Int64.bits_of_float s2.Machine.Exec.cycles);
  Alcotest.(check string) "baseline output identical" s1.Machine.Exec.output
    s2.Machine.Exec.output;
  let h1, p1 =
    Harness.Workbench.smokestack_stats ~backend:Machine.Backend.reference ~store:(Cache.in_memory ())
      Smokestack.Config.default w
  in
  let h2, p2 =
    Harness.Workbench.smokestack_stats ~backend:Machine.Backend.reference ~store:(Cache.in_memory ())
      Smokestack.Config.default w
  in
  Alcotest.(check int64)
    "hardened cycles bit-identical across stores"
    (Int64.bits_of_float h1.Machine.Exec.cycles)
    (Int64.bits_of_float h2.Machine.Exec.cycles);
  Alcotest.(check int) "pbox bytes identical" p1 p2

(* ------------------------------------------------------------------ *)
(* Cache.memo: the one find-decode-put sequence, on both backends *)

(* [f store reopen]: [reopen ()] is a later handle on the same store *)
let on_both_backends f =
  let mem = Cache.in_memory () in
  f mem (fun () -> mem);
  with_disk_store (fun store dir -> f store (fun () -> Cache.open_disk dir))

let memo_verdicts store key calls v =
  Cache.memo store key ~encode:Entry.verdicts_entry
    ~decode:Entry.verdicts_of_entry (fun () ->
      incr calls;
      v)

let test_memo_miss () =
  on_both_backends (fun store _ ->
      let key = base_key ~extra:"memo-miss" () and calls = ref 0 in
      let v = [ ("success", "") ] in
      Alcotest.(check bool) "returns the thunk's value" true
        (memo_verdicts store key calls v = v);
      Alcotest.(check int) "thunk ran once" 1 !calls;
      Alcotest.(check int) "one put" 1 (Cache.stats store).writes;
      Alcotest.(check bool) "stored encoded" true
        (Option.bind (Cache.find store key) Entry.verdicts_of_entry = Some v))

let test_memo_hit () =
  on_both_backends (fun store _ ->
      let key = base_key ~extra:"memo-hit" () and calls = ref 0 in
      let v = [ ("crashed", "x") ] in
      ignore (memo_verdicts store key calls v);
      Alcotest.(check bool) "serves the stored value" true
        (memo_verdicts store key calls [ ("no-effect", "") ] = v);
      Alcotest.(check int) "thunk not called on a hit" 1 !calls;
      Alcotest.(check int) "no second put" 1 (Cache.stats store).writes)

let test_memo_undecodable () =
  on_both_backends (fun store reopen ->
      let key = base_key ~extra:"memo-undecodable" () and calls = ref 0 in
      Cache.put store key (Entry.make ~kind:"other" ~version:1 Sutil.Json.Null);
      let v = [ ("detected", "fid") ] in
      Alcotest.(check bool) "recomputed" true
        (memo_verdicts store key calls v = v);
      Alcotest.(check int) "thunk ran" 1 !calls;
      Alcotest.(check bool) "overwritten" true
        (Option.bind (Cache.find store key) Entry.verdicts_of_entry = Some v);
      Alcotest.(check bool) "next call hits" true
        (memo_verdicts store key calls [] = v);
      Alcotest.(check bool) "a later handle hits too" true
        (memo_verdicts (reopen ()) key calls [] = v);
      Alcotest.(check int) "no further run" 1 !calls)

let test_memo_raise () =
  on_both_backends (fun store _ ->
      let key = base_key ~extra:"memo-raise" () in
      (match
         Cache.memo store key ~encode:Entry.verdicts_entry
           ~decode:Entry.verdicts_of_entry (fun () -> failwith "boom")
       with
      | _ -> Alcotest.fail "the thunk's exception must propagate"
      | exception Failure _ -> ());
      Alcotest.(check int) "no put" 0 (Cache.stats store).writes;
      Alcotest.(check bool) "nothing stored" false (Cache.mem store key))

let () =
  Alcotest.run "store"
    [
      ( "key",
        [
          Alcotest.test_case "deterministic" `Quick test_key_deterministic;
          Alcotest.test_case "distinct per field" `Quick
            test_key_distinct_per_field;
          Alcotest.test_case "json round-trip" `Quick test_key_json_roundtrip;
          Alcotest.test_case "ids pinned" `Quick test_key_ids_pinned;
        ] );
      ( "entry",
        [
          Alcotest.test_case "exec round-trip bit-exact" `Quick
            test_exec_codec_roundtrip;
          Alcotest.test_case "version/kind mismatch is a miss" `Quick
            test_exec_codec_version_mismatch_is_miss;
          Alcotest.test_case "verdicts round-trip" `Quick
            test_verdicts_codec_roundtrip;
        ] );
      ( "disk",
        [
          Alcotest.test_case "round-trip and counters" `Quick
            test_disk_roundtrip_and_counters;
          Alcotest.test_case "survives reopen" `Quick test_disk_survives_reopen;
          Alcotest.test_case "corruption quarantined as miss" `Quick
            test_corrupt_entry_is_quarantined_miss;
          Alcotest.test_case "key-echo mismatch is miss" `Quick
            test_key_echo_mismatch_is_miss;
          Alcotest.test_case "manifest version mismatch refused" `Quick
            test_incompatible_manifest_version;
          Alcotest.test_case "foreign directory refused" `Quick
            test_foreign_directory_rejected;
          Alcotest.test_case "concurrent writers jobs=8" `Quick
            test_concurrent_writers;
          Alcotest.test_case "torn tail at every offset" `Quick
            test_torn_tail_every_offset;
          Alcotest.test_case "taken segment name not appended to" `Quick
            test_taken_segment_name_not_appended;
          Alcotest.test_case "corrupt copy never shadows a valid one" `Quick
            test_corrupt_copy_never_shadows;
          Alcotest.test_case "put visible to an earlier handle" `Quick
            test_put_visible_to_earlier_handle;
          Alcotest.test_case "version-1 store refused" `Quick
            test_v1_store_refused;
          Alcotest.test_case "no descriptor leak over 1000 cycles" `Quick
            test_no_descriptor_leak;
          Alcotest.test_case "header id checked" `Quick test_header_id_checked;
          Alcotest.test_case "bit flip healed for later handles" `Quick
            test_bit_flip_healed_for_later_handles;
          Alcotest.test_case "segment of an exited writer read" `Quick
            test_exited_writer_segment_read;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "warm run hits everything" `Quick
            test_campaign_warm_hits_everything;
          Alcotest.test_case "digest stable across jobs" `Quick
            test_campaign_digest_stable_across_jobs;
          Alcotest.test_case "remaining counts cold keys" `Quick
            test_campaign_remaining;
          Alcotest.test_case "resume property" `Quick
            test_campaign_resume_property;
          Alcotest.test_case "hardened digest pinned" `Quick
            test_campaign_hardened_digest_pinned;
          Alcotest.test_case "cold log reads back through find" `Quick
            test_campaign_log_reads_back;
        ] );
      ( "workbench",
        [
          Alcotest.test_case "stats independent of store instance" `Quick
            test_workbench_stats_store_independent;
        ] );
      ( "memo",
        [
          Alcotest.test_case "miss computes once and puts" `Quick
            test_memo_miss;
          Alcotest.test_case "hit skips the thunk" `Quick test_memo_hit;
          Alcotest.test_case "undecodable entry recomputed and overwritten"
            `Quick test_memo_undecodable;
          Alcotest.test_case "raising thunk stores nothing" `Quick
            test_memo_raise;
        ] );
    ]
