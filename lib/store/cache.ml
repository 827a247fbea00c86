module J = Sutil.Json

let format_version = 2

(* ------------------------------------------------------------------ *)
(* Record framing *)

(* [<id> <body length, 10 digits> <md5 hex of body>\n] *)
let id_len = 32
let header_len = id_len + 1 + 10 + 1 + 32 + 1

let header id body =
  Printf.sprintf "%s %010d %s\n" id (String.length body)
    (Digest.to_hex (Digest.string body))

let is_hex ch = (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')
let is_digit ch = ch >= '0' && ch <= '9'

let rec all_in ok h i hi = i >= hi || (ok h.[i] && all_in ok h (i + 1) hi)

let rec decimal h acc i hi =
  if i >= hi then acc else decimal h ((10 * acc) + Char.code h.[i] - 48) (i + 1) hi

(* The body length a well-formed header declares, or -1. *)
let body_length h =
  if
    String.length h >= header_len
    && all_in is_hex h 0 id_len
    && h.[id_len] = ' '
    && all_in is_digit h (id_len + 1) (id_len + 11)
    && h.[id_len + 11] = ' '
    && all_in is_hex h (id_len + 12) (header_len - 1)
    && h.[header_len - 1] = '\n'
  then decimal h 0 (id_len + 1) (id_len + 11)
  else -1

(* The index key of an id: its first 15 hex digits as an int. *)
let id_prefix id =
  let rec go acc i =
    if i = 15 then acc
    else
      let ch = id.[i] in
      let d = if ch <= '9' then Char.code ch - 48 else Char.code ch - 87 in
      go ((acc lsl 4) lor d) (i + 1)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Index: an open-addressing multimap from id prefix to a packed
   [segment number, offset] location.  It holds no string per entry: a
   handle stays a few ints per record however long it is kept alive.
   Two records of one id (a re-put, concurrent writers) keep a slot
   each, so a corrupt copy never hides a valid one. *)

module Index = struct
  type t = { mutable prefix : int array; mutable loc : int array; mutable used : int }

  let empty = -1
  let dropped = -2
  let off_bits = 40
  let pack seg off = (seg lsl off_bits) lor off
  let seg_of l = l lsr off_bits
  let off_of l = l land ((1 lsl off_bits) - 1)
  let create () = { prefix = Array.make 64 0; loc = Array.make 64 empty; used = 0 }

  (* Linear probing up to 7/8 full, growing by half: every live handle
     holds its index, so slots are kept few; a longer probe costs
     nanoseconds against a read's microseconds. *)
  let next t i = if i + 1 = Array.length t.loc then 0 else i + 1

  let rec add t p l =
    if 8 * (t.used + 1) > 7 * Array.length t.loc then grow t;
    let i = ref (p mod Array.length t.loc) in
    while t.loc.(!i) <> empty do
      i := next t !i
    done;
    t.prefix.(!i) <- p;
    t.loc.(!i) <- l;
    t.used <- t.used + 1

  and grow t =
    let prefix = t.prefix and loc = t.loc in
    let cap = Array.length loc * 3 / 2 in
    t.prefix <- Array.make cap 0;
    t.loc <- Array.make cap empty;
    t.used <- 0;
    Array.iteri (fun i l -> if l >= 0 then add t prefix.(i) l) loc

  (* The slot of the first live location of [p] (or of exactly [l]),
     or -1. *)
  let slot ?(l = -1) t p =
    let rec go i =
      let li = t.loc.(i) in
      if li = empty then -1
      else if li >= 0 && t.prefix.(i) = p && (l < 0 || li = l) then i
      else go (next t i)
    in
    go (p mod Array.length t.loc)

  let find t p = match slot t p with -1 -> empty | i -> t.loc.(i)
  let drop t p l = match slot ~l t p with -1 -> () | i -> t.loc.(i) <- dropped
end

(* ------------------------------------------------------------------ *)
(* Handles *)

type segment = {
  name : string;
  path : string;
  writer : int;  (** the pid its name starts with, or 0 *)
  mutable seen : int;  (** file size at the last scan *)
  mutable scanned : int;  (** end of the last complete record indexed *)
  mutable sealed : bool;
      (** nothing more is read from it: a malformed header, or its
          writer had exited before the last scan *)
}

type disk = {
  dir : string;
  log : string;
  index : Index.t;
  names : (string, unit) Hashtbl.t;
  quarantined : (string, unit) Hashtbl.t;  (** [quarantine/] at open *)
  mutable segs : segment array;
  mutable own : int;  (** this handle's segment, or -1 before its first put *)
  mutable listed : float;  (** [log/]'s mtime at its last listing *)
  mutable settled : bool;
      (** [listed] was more than [settle_s] old at that listing, so a
          segment created since must have moved the mtime *)
}

type backend = Memory of (string, Key.t * Entry.t) Hashtbl.t | Disk of disk

type t = {
  backend : backend;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable evicted : int;
}

exception Incompatible of string

type stats = { hits : int; misses : int; writes : int; evicted : int }

let manifest_name = "manifest.json"
let manifest_field = "smokestack-store"

let ( / ) = Filename.concat

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ())
    end
    else if not (Sys.is_directory d) then
      raise (Sys_error (d ^ ": not a directory"))
  in
  go dir

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let mk backend =
  { backend; mutex = Mutex.create (); hits = 0; misses = 0; writes = 0; evicted = 0 }

let in_memory () = mk (Memory (Hashtbl.create 64))

(* Unique temp-file suffix: pid disambiguates processes, the atomic
   counter disambiguates handles within one process. *)
let tmp_counter = Atomic.make 0

let write_manifest dir =
  let tmp =
    dir
    / Printf.sprintf "%s.%d.%d.tmp" manifest_name (Unix.getpid ())
        (Atomic.fetch_and_add tmp_counter 1)
  in
  Out_channel.with_open_bin tmp (fun oc ->
      J.doc_to_channel oc (J.Obj [ (manifest_field, J.Int format_version) ]));
  Sys.rename tmp (dir / manifest_name)

let validate_manifest dir =
  let path = dir / manifest_name in
  if Sys.file_exists path then begin
    let doc =
      match J.of_string (read_file path) with
      | Ok j -> j
      | Error e ->
          raise
            (Incompatible
               (Printf.sprintf
                  "%s: unreadable store manifest (%s); move the directory \
                   aside or delete it to start a fresh store"
                  path e))
    in
    match Option.bind (J.member manifest_field doc) J.to_int_opt with
    | Some v when v = format_version -> ()
    | Some v ->
        raise
          (Incompatible
             (Printf.sprintf
                "%s: store format version %d, this binary writes version %d; \
                 rebuild the store in a fresh directory"
                path v format_version))
    | None ->
        raise
          (Incompatible
             (Printf.sprintf
                "%s: not a smokestack store manifest; move the directory \
                 aside or delete it to start a fresh store"
                path))
  end
  else if Sys.readdir dir <> [||] then
    raise
      (Incompatible
         (Printf.sprintf
            "%s: directory exists, is not empty, and has no %s — refusing to \
             adopt it as a store"
            dir manifest_name))
  else write_manifest dir

let register d name =
  Hashtbl.replace d.names name ();
  let writer =
    match int_of_string_opt (List.hd (String.split_on_char '.' name)) with
    | Some pid when pid > 0 -> pid
    | _ -> 0
  in
  d.segs <-
    Array.append d.segs
      [| { name; path = d.log / name; writer; seen = 0; scanned = 0; sealed = false } |];
  Array.length d.segs - 1

(* The name a failed record is copied to in [quarantine/]: a function
   of its place, which no later record can take. *)
let quarantine_name id seg off = Printf.sprintf "%s.%s.%d" id seg.name off

(* Indexes the records appended to segment [i] since its last scan:
   one sequential pass that reads headers and reads past bodies.  A
   record cut short by the end of the file (a tail still being written,
   or one a killed writer tore) stays unindexed and is looked at again
   once the file grows.  A record an earlier handle quarantined is not
   indexed again, so every later handle sees a plain miss. *)
let scan d i =
  let seg = d.segs.(i) in
  let indexable h off =
    Hashtbl.length d.quarantined = 0
    || not (Hashtbl.mem d.quarantined (quarantine_name (String.sub h 0 id_len) seg off))
  in
  match (Unix.stat seg.path).st_size with
  | exception Unix.Unix_error _ -> ()
  | size when seg.sealed || size = seg.seen -> ()
  | size ->
      seg.seen <- size;
      In_channel.with_open_bin seg.path @@ fun ic ->
      In_channel.seek ic (Int64.of_int seg.scanned);
      let hdr = Bytes.create header_len and skip = Bytes.create 1024 in
      let rec past n =
        n = 0
        ||
        let k = min n (Bytes.length skip) in
        In_channel.really_input ic skip 0 k <> None && past (n - k)
      in
      let rec next () =
        if In_channel.really_input ic hdr 0 header_len <> None then begin
          let h = Bytes.unsafe_to_string hdr in
          let len = body_length h in
          if len < 0 then seg.sealed <- true
          else if past len then begin
            if indexable h seg.scanned then
              Index.add d.index (id_prefix h) (Index.pack i seg.scanned);
            seg.scanned <- seg.scanned + header_len + len;
            next ()
          end
        end
      in
      next ()

(* How long after its mtime a listing of [log/] may still miss a
   segment created in the same timestamp tick: a creation stamps the
   mtime from a clock that can lag by a scheduler tick, and a
   filesystem that keeps whole seconds (two on FAT) stamps every
   creation within that span alike. *)
let settle_s mtime = if Float.is_integer mtime then 2.1 else 0.05

(* Whether the process that created a segment has exited.  Each handle
   appends only to a segment its own process created, so a segment
   scanned after its writer exited never grows again.  A pid that is
   alive, reused, or not ours to signal counts as running. *)
let exited pid =
  pid > 0 && pid <> Unix.getpid ()
  && match Unix.kill pid 0 with
     | () -> false
     | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
     | exception Unix.Unix_error _ -> false

(* Picks up segments other handles created (in name order) and records
   they appended, and seals the segments of exited writers so that a
   miss no longer looks at them. *)
let refresh d =
  let mtime = (Unix.stat d.log).st_mtime in
  let names = Sys.readdir d.log in
  d.listed <- mtime;
  d.settled <- Unix.gettimeofday () -. mtime > settle_s mtime;
  Array.sort String.compare names;
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".log" && not (Hashtbl.mem d.names name) then
        ignore (register d name))
    names;
  Array.iteri
    (fun i seg ->
      if not seg.sealed then begin
        let gone = i <> d.own && exited seg.writer in
        scan d i;
        if gone then seg.sealed <- true
      end)
    d.segs

let open_disk dir =
  mkdir_p dir;
  validate_manifest dir;
  mkdir_p (dir / "log");
  mkdir_p (dir / "quarantine");
  let quarantined = Hashtbl.create 8 in
  Array.iter (fun f -> Hashtbl.replace quarantined f ()) (Sys.readdir (dir / "quarantine"));
  let d =
    {
      dir;
      log = dir / "log";
      index = Index.create ();
      names = Hashtbl.create 8;
      quarantined;
      segs = [||];
      own = -1;
      listed = 0.;
      settled = false;
    }
  in
  refresh d;
  mk (Disk d)

let root t = match t.backend with Memory _ -> None | Disk d -> Some d.dir

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Whether another writer may have appended since the last refresh: a
   segment created since [log/] was listed, or an unsealed foreign
   segment whose size moved.  It costs a [stat] of [log/] and one per
   segment whose writer was still running at the last refresh, however
   many writers the store has had, and runs without the handle's mutex,
   so a cold miss neither lists the directory nor queues behind puts;
   [segs] is replaced, never mutated in place, and a stale read of a
   field only costs a refresh. *)
let stale d =
  let segs = d.segs and own = d.own in
  (match Unix.stat d.log with
  | st -> not (d.settled && st.st_mtime = d.listed)
  | exception Unix.Unix_error _ -> true)
  ||
  let moved i seg =
    i <> own && (not seg.sealed)
    && match Unix.stat seg.path with
       | st -> st.st_size <> seg.seen
       | exception Unix.Unix_error _ -> true
  in
  let rec any i = i < Array.length segs && (moved i segs.(i) || any (i + 1)) in
  any 0

(* The first indexed location of [p], rescanning on a miss if another
   writer may have appended. *)
let locate t d p =
  match locked t (fun () -> Index.find d.index p) with
  | l when l >= 0 -> l
  | _ ->
      let stale = stale d in
      locked t (fun () ->
          if stale then refresh d;
          Index.find d.index p)

(* ------------------------------------------------------------------ *)
(* Reads *)

let rec read_into fd buf pos len =
  if len = 0 then pos
  else
    match Unix.read fd buf pos len with
    | 0 -> pos
    | n -> read_into fd buf (pos + n) (len - n)

(* The record at [off]: [Ok entry] if every check passes, else
   [Error bytes] with what the record's bytes were read. *)
let read_record path off id key =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> Error Bytes.empty
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let buf = Bytes.create 1024 in
      let got = read_into fd buf 0 (Bytes.length buf) in
      let h = Bytes.sub_string buf 0 (min got header_len) in
      let len = body_length h in
      let total = header_len + len in
      (* a record longer than the first read, and not cut short by the
         end of the file: read the rest *)
      let buf, got =
        if len >= 0 && total > got && got = Bytes.length buf
           && off + total <= (Unix.fstat fd).st_size
        then
          let all = Bytes.extend buf 0 (total - got) in
          (all, read_into fd all got (total - got))
        else (buf, got)
      in
      let ok =
        len >= 0
        && String.equal (String.sub h 0 id_len) id
        && total <= got
        && String.equal
             (Digest.to_hex (Digest.subbytes buf header_len len))
             (String.sub h (id_len + 12) 32)
      in
      let entry =
        if not ok then None
        else
          match J.of_string (Bytes.sub_string buf header_len len) with
          | Ok doc -> (
              match Entry.of_json doc with
              | Some (k, e) when Key.equal k key -> Some e
              | _ -> None)
          | Error _ -> None
      in
      match entry with
      | Some e -> Ok e
      | None -> Error (Bytes.sub buf 0 (if len < 0 then got else min got total))

(* Copies a failed record aside; later handles skip its place. *)
let quarantine d id seg off bytes =
  let name = quarantine_name id seg off in
  try Out_channel.with_open_bin (d.dir / "quarantine" / name) (fun oc -> Out_channel.output_bytes oc bytes)
  with Sys_error _ -> ()

let hit t = locked t (fun () -> t.hits <- t.hits + 1)
let miss t = locked t (fun () -> t.misses <- t.misses + 1)

let find_disk t d key id =
  let p = id_prefix id in
  let rec attempt () =
    let l = locate t d p in
    if l < 0 then None
    else
      let seg = d.segs.(Index.seg_of l) in
      match read_record seg.path (Index.off_of l) id key with
      | Ok e -> Some e
      | Error bytes ->
          quarantine d id seg (Index.off_of l) bytes;
          locked t (fun () ->
              Index.drop d.index p l;
              t.evicted <- t.evicted + 1);
          attempt ()
  in
  attempt ()

let find t key =
  let id = Key.id key in
  let found =
    match t.backend with
    | Memory tbl -> (
        match locked t (fun () -> Hashtbl.find_opt tbl id) with
        | Some (k, e) when Key.equal k key -> Some e
        | _ -> None)
    | Disk d -> find_disk t d key id
  in
  (match found with Some _ -> hit t | None -> miss t);
  found

let mem t key =
  let id = Key.id key in
  match t.backend with
  | Memory tbl -> locked t (fun () -> Hashtbl.mem tbl id)
  | Disk d -> locate t d (id_prefix id) >= 0

(* ------------------------------------------------------------------ *)
(* Writes *)

(* A descriptor appending to this handle's segment.  The segment is
   created on first use with [O_EXCL] as [log/<pid>.<n>.log], [n]
   counting up from the number of segments the handle knows past any
   name already taken; it is abandoned for a new one if its size is not
   what this handle wrote.  Nothing is ever appended behind another
   writer's records, nor behind a torn tail. *)
let rec open_own d =
  if d.own < 0 then begin
    let rec create n =
      let name = Printf.sprintf "%d.%d.log" (Unix.getpid ()) n in
      match
        Unix.openfile (d.log / name)
          [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
          0o644
      with
      | fd ->
          d.own <- register d name;
          fd
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> create (n + 1)
    in
    create (Array.length d.segs)
  end
  else
    let seg = d.segs.(d.own) in
    match Unix.openfile seg.path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0 with
    | fd when (Unix.fstat fd).st_size = seg.scanned -> fd
    | fd ->
        Unix.close fd;
        d.own <- -1;
        open_own d
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
        d.own <- -1;
        open_own d

let append d id record =
  let fd = open_own d in
  let seg = d.segs.(d.own) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let n =
    try Unix.write_substring fd record 0 (String.length record)
    with Unix.Unix_error _ -> -1
  in
  if n <> String.length record then begin
    d.own <- -1;
    raise (Sys_error (seg.path ^ ": short write"))
  end;
  Index.add d.index (id_prefix id) (Index.pack d.own seg.scanned);
  seg.scanned <- seg.scanned + String.length record;
  seg.seen <- seg.scanned

let put t key entry =
  let id = Key.id key in
  (match t.backend with
  | Memory tbl -> locked t (fun () -> Hashtbl.replace tbl id (key, entry))
  | Disk d ->
      let body = J.to_string (Entry.to_json ~key entry) ^ "\n" in
      let record = header id body ^ body in
      locked t (fun () -> append d id record));
  locked t (fun () -> t.writes <- t.writes + 1)

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; writes = t.writes; evicted = t.evicted })

let reset_stats t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.writes <- 0;
      t.evicted <- 0)

let stats_to_json s =
  J.Obj
    [
      ("hits", J.Int s.hits);
      ("misses", J.Int s.misses);
      ("writes", J.Int s.writes);
      ("evicted", J.Int s.evicted);
    ]
