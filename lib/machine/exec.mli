(** IR interpreter with byte-accurate stack semantics.

    Functions execute against the segmented {!module:Memory}; every
    [alloca] really claims bytes of the downward-growing stack segment,
    so out-of-bounds writes corrupt whatever is adjacent — callee
    buffers overflow into caller locals exactly as on the paper's
    x86-64 testbed.  Return addresses are deliberately {e not} stack
    resident (the threat model grants the attacker no control-data
    corruption; DOP attacks never need it), so control flow lives on the
    OCaml call stack.

    Cycle accounting uses {!module:Cost}; intrinsics (the Smokestack
    runtime hooks) are provided by the embedder via
    {!register_intrinsic}. *)

type trace_event =
  | Ev_call of { func : string; depth : int; sp : int }
  | Ev_return of { func : string; depth : int }
  | Ev_intrinsic of { name : string; result : int64 option }
  | Ev_fault of { detail : string }
  | Ev_detected of { reason : string }
  | Ev_rng_degraded of { from_ : string; to_ : string option; reason : string }
      (** the randomness source failed a health test (or reported
          itself unavailable) and the runtime fell back to [to_]
          ([None] = fail-secure abort); scheme names as strings so the
          machine stays independent of [lib/rng] *)
      (** consumed by {!Trace}; [on_event = None] costs nothing *)

type state = {
  prog : Ir.Prog.t;
  mem : Memory.t;
  stack_top : int;
  stack_limit : int;
  mutable sp : int;
  mutable heap_next : int;
  heap_limit : int;
  mutable cycles : float;
  mutable instr_count : int;
  mutable call_count : int;
  mutable depth : int;
  mutable max_depth : int;
  mutable max_frame_bytes : int;
  mutable fuel : int;
  output : Buffer.t;
  globals : (string, int) Hashtbl.t;
  func_tokens : (string, int) Hashtbl.t;
  token_funcs : (int, string) Hashtbl.t;
  intrinsics : (string, intrinsic) Hashtbl.t;
  mutable input : state -> int -> string;
      (** invoked by the [read_input] builtin; receives the live state,
          so an adaptive adversary can inspect memory before answering *)
  mutable on_event : (trace_event -> unit) option;
  mutable cur_func : string;
      (** innermost function currently executing — per-state (not
          module-level) so concurrent runs in different domains
          attribute faults and detections to their own call chain *)
}

and intrinsic = state -> int64 array -> int64 option

type outcome =
  | Exit of int64
  | Fault of { fault : Memory.fault; func : string }
  | Detected of { reason : string; func : string }
      (** a defense check fired — Smokestack FID mismatch, canary, … *)
  | Fuel_exhausted

type stats = {
  cycles : float;
  instr_count : int;
  call_count : int;
  max_depth : int;
  max_frame_bytes : int;
  rss_bytes : int;
  output : string;
}

val pp_outcome : Format.formatter -> outcome -> unit
val outcome_to_string : outcome -> string

exception Detect of string
(** Raised by defense intrinsics to signal detection. *)

exception Exit_program of int64
(** Raised by the [exit] builtin; execution engines turn it into
    {!constructor:Exit}. *)

exception Out_of_fuel
(** Raised when the instruction budget runs out; execution engines turn
    it into {!constructor:Fuel_exhausted}. *)

val default_stack_top : int
(** Initial stack pointer of every prepared state (no ASLR in the
    baseline VM — the determinism DOP attacks rely on). *)

val default_heap_base : int
(** First address the bump allocator hands out. *)

(** {1 Address-space constants} — shared with alternative execution
    backends (see {!module:Backend}), which must charge the same
    segment-dependent load costs and resolve the same function
    tokens. *)

val func_token_base : int
(** Address of the first function token; function [i] of the program
    gets token [func_token_base + 16 * i]. *)

val rodata_base : int
val data_base : int

val prepare : ?heap_size:int -> ?stack_size:int -> Ir.Prog.t -> state
(** Loads globals into rodata/data segments and builds a fresh state.
    Defaults: 8 MiB heap, 1 MiB stack — extents; their bytes are
    materialized as the program touches them (see {!Memory}). *)

val register_intrinsic : state -> string -> intrinsic -> unit
val set_input : state -> (state -> int -> string) -> unit

val input_string : string -> state -> int -> string
(** An input callback that serves successive slices of a fixed
    string, then empty strings. *)

val global_addr : state -> string -> int
(** Loaded address of a global. Raises [Invalid_argument] if absent. *)

val charge : state -> float -> unit
(** Add cycles; for intrinsic implementations. *)

val run : ?fuel:int -> ?entry:string -> ?args:int64 list -> state -> outcome * stats
(** Executes [entry] (default ["main"]). [fuel] bounds executed
    instructions (default 200 million). The state is consumed: run each
    prepared state once. *)

(** {1 Shared execution services} — the pieces of the reference
    interpreter an alternative backend must reuse verbatim so that both
    backends produce bit-identical outcomes, cycle counts and output
    (see [test/test_engine.ml] for the differential contract). *)

val run_builtin : state -> string -> int64 array -> int64 option
(** Executes one builtin against the state (charging its cost model).
    Raises {!exception:Exit_program} for [exit] and
    {!Memory.Fault} for [abort] or unknown names. *)

val eval_binop : Ir.Instr.binop -> int64 -> int64 -> int64
(** Shared arithmetic, including the division-by-zero fault. *)

val eval_icmp : Ir.Instr.icmp -> int64 -> int64 -> int64

val stats_of_state : state -> stats
(** Snapshot of the accounting fields, as {!run} returns them. *)

val builtin_names : string list
(** Externs the machine resolves: C-library models and VM services
    ([memcpy], [memset], [strlen], [strcpy], [strncpy] with size_t
    semantics, [snprintf_cat], [memcmp], [malloc], [free], [print_int],
    [print_char], [print_str], [print_newline], [read_input],
    [input_byte], [exit], [abort]). *)
