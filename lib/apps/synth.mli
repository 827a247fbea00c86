(** Synthetic DOP penetration-test programs (paper §V-C, "Penetration
    testing with synthetic benchmarks").

    Six RIPE-style variants crossing the overflow {e technique}
    (direct, indirect) with the vulnerable buffer's {e location}
    (stack, data segment, heap).  Every variant guards a secret behind
    [if (auth == 0x1337)]; the attacker's goal is to make the program
    print ["GRANTED"] by corrupting stack-resident DOP gadget operands
    and the gadget dispatcher's loop counter — never control data.

    Each variant's [attack] performs {e one} exploit attempt against a
    defense-applied program: it derives the frame layout by static
    binary analysis when the binary reveals it, and falls back to an
    Algorithm-1 layout guess (selected by [seed]) when it does not —
    i.e. against Smokestack.  Brute force is [attack] in a loop over
    seeds. *)

type variant = {
  vname : string;  (** e.g. ["stack-direct"] *)
  technique : [ `Direct | `Indirect ];
  location : [ `Stack | `Data | `Heap ];
  source : string;  (** MiniC *)
  program : Ir.Prog.t Lazy.t;
  attack : Dopkit.attack;
      (** one attempt; the request count is the number of request
          chunks delivered *)
}

val variants : variant list
(** All six, in (stack, data, heap) x (direct, indirect) order. *)

val find : string -> variant option
(** Looks up [variants] plus the hidden [stack-leaky] target — the
    stack-direct program with a disclosure preamble that prints every
    local's absolute address (one integer line each, frame declaration
    order) before its first read.  It is the ground-truth positive for
    the {!Analysis.Leakan} address-disclosure channel and the target of
    the leak-guided attack path; it stays out of [variants] because its
    output is layout-dependent and would break the deterministic
    pentest tables. *)

val benign_output : string
(** What an unattacked run prints (["denied\n"]); used by tests. *)
