type config = { rct_cutoff : int; apt_window : int; apt_cutoff : int }

let default = { rct_cutoff = 5; apt_window = 512; apt_cutoff = 20 }

type t = {
  (* RCT: current run of identical full-width samples *)
  mutable rct_last : int64;
  mutable rct_run : int;
  (* APT: low-byte reference for the current window *)
  mutable apt_ref : int;
  mutable apt_pos : int;  (* samples seen in the current window *)
  mutable apt_hits : int;
  mutable failed : string option;
}

let create () =
  {
    rct_last = 0L;
    rct_run = 0;
    apt_ref = -1;
    apt_pos = 0;
    apt_hits = 0;
    failed = None;
  }

let reset t =
  t.rct_run <- 0;
  t.apt_ref <- -1;
  t.apt_pos <- 0;
  t.apt_hits <- 0;
  t.failed <- None

let feed t v =
  match t.failed with
  | Some _ as f -> f
  | None ->
      (* repetition count *)
      if t.rct_run > 0 && Int64.equal v t.rct_last then
        t.rct_run <- t.rct_run + 1
      else begin
        t.rct_last <- v;
        t.rct_run <- 1
      end;
      if t.rct_run >= default.rct_cutoff then
        t.failed <-
          Some
            (Printf.sprintf
               "repetition-count test: value 0x%Lx repeated %d times" v
               t.rct_run)
      else begin
        (* adaptive proportion, on the low byte *)
        let b = Int64.to_int (Int64.logand v 0xffL) in
        if t.apt_pos = 0 then begin
          t.apt_ref <- b;
          t.apt_hits <- 1;
          t.apt_pos <- 1
        end
        else begin
          if b = t.apt_ref then t.apt_hits <- t.apt_hits + 1;
          t.apt_pos <- t.apt_pos + 1
        end;
        if t.apt_hits >= default.apt_cutoff then
          t.failed <-
            Some
              (Printf.sprintf
                 "adaptive-proportion test: low byte 0x%02x seen %d times in \
                  %d samples"
                 t.apt_ref t.apt_hits t.apt_pos)
        else if t.apt_pos >= default.apt_window then begin
          t.apt_pos <- 0;
          t.apt_hits <- 0
        end
      end;
      t.failed
