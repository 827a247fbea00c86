(* Front-end tests: lexer, parser, and full compile-and-execute
   semantics checks (the interpreter doubles as the oracle). *)

let run ?(input = "") src =
  let prog = Minic.Driver.compile src in
  let st = Machine.Exec.prepare prog in
  Machine.Exec.set_input st (Machine.Exec.input_string input);
  Machine.Exec.run st

let expect_output ?input name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let outcome, stats = run ?input src in
      (match outcome with
      | Machine.Exec.Exit 0L -> ()
      | o -> Alcotest.failf "%s: %s" name (Machine.Exec.outcome_to_string o));
      Alcotest.(check string) name expected stats.output)

let expect_error name src fragment =
  Alcotest.test_case name `Quick (fun () ->
      match Minic.Driver.compile_result src with
      | Ok _ -> Alcotest.failf "%s: expected a compile error" name
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S mentions %S" name msg fragment)
            true
            (let n = String.length fragment in
             let found = ref false in
             for i = 0 to String.length msg - n do
               if String.sub msg i n = fragment then found := true
             done;
             !found))

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_tokens () =
  let toks = Minic.Lexer.tokenize "x += 0x10 >> 2; // comment\n 'a' \"s\\n\"" in
  let kinds = Array.to_list (Array.map (fun t -> t.Minic.Token.tok) toks) in
  Alcotest.(check bool) "shape" true
    (kinds
    = [
        Minic.Token.Ident "x"; Minic.Token.Plus_assign; Minic.Token.Int_lit 16L;
        Minic.Token.Shr; Minic.Token.Int_lit 2L; Minic.Token.Semi;
        Minic.Token.Char_lit 'a'; Minic.Token.Str_lit "s\n"; Minic.Token.Eof;
      ])

let test_lexer_positions () =
  let toks = Minic.Lexer.tokenize "a\n  b" in
  Alcotest.(check int) "line of b" 2 toks.(1).Minic.Token.loc.line;
  Alcotest.(check int) "col of b" 3 toks.(1).Minic.Token.loc.col

let test_lexer_errors () =
  Alcotest.check_raises "unterminated string"
    (Minic.Srcloc.Error { loc = { line = 1; col = 1 }; msg = "unterminated string literal" })
    (fun () -> ignore (Minic.Lexer.tokenize "\"abc"));
  (match Minic.Lexer.tokenize "@" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Minic.Srcloc.Error _ -> ())

(* Every Apps.Spec source and 200 Progen programs, lexed: the digest of
   their [(tok, loc)] streams pins the lexer's output token by token. *)
let golden_sources () =
  List.map (fun (w : Apps.Spec.workload) -> w.source) Apps.Spec.all
  @ List.of_seq (Seq.map snd (Minic.Progen.range ~seed:1L 200))

let token_stream_digest sources =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun src ->
      Array.iter
        (fun { Minic.Token.tok; loc } ->
          Printf.bprintf buf "%d:%d %s\n" loc.Minic.Srcloc.line loc.col
            (Minic.Token.to_string tok))
        (Minic.Lexer.tokenize src))
    sources;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_lexer_golden_streams () =
  Alcotest.(check string)
    "token-stream digest" "27c759fd171949f2801d200c2a735734"
    (token_stream_digest (golden_sources ()))

(* Each error's message and location, and the token count of the inputs
   that must lex: a NUL byte is an unexpected character outside string
   and character literals, and an ordinary byte inside them. *)
let lex_error src =
  match Minic.Lexer.tokenize src with
  | toks -> Printf.sprintf "ok %d tokens" (Array.length toks)
  | exception (Minic.Srcloc.Error _ as e) -> Option.get (Minic.Srcloc.to_string e)

let test_lexer_error_cases () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "%S" src) expected (lex_error src))
    [
      ("int a;\000", "minic error at 1:7: unexpected character '\\000'");
      ("\000", "minic error at 1:1: unexpected character '\\000'");
      ("int a; /* abc", "minic error at 1:8: unterminated block comment");
      ("/*", "minic error at 1:1: unterminated block comment");
      ("/* x *", "minic error at 1:1: unterminated block comment");
      ("\"abc", "minic error at 1:1: unterminated string literal");
      ("\"ab\\", "minic error at 1:1: bad escape sequence");
      ("'a", "minic error at 1:1: unterminated character literal");
      ("'", "minic error at 1:1: unterminated character literal");
      ("'\\", "minic error at 1:1: bad escape sequence");
      ("'ab'", "minic error at 1:1: unterminated character literal");
      ("'\\q'", "minic error at 1:1: bad escape sequence");
      ("\"a\\qb\"", "minic error at 1:1: bad escape sequence");
      ("'\\x'", "minic error at 1:1: bad \\x escape");
      ("\"\\xg\"", "minic error at 1:1: bad \\x escape");
      ("\n  x = \"a\nb", "minic error at 2:7: unterminated string literal");
      ("\"a\000b\" /* \000 */ // \000", "ok 2 tokens");
      ("'\000'", "ok 2 tokens");
      ("x // tail", "ok 2 tokens");
      ("0x", "minic error at 1:1: bad integer literal 0x");
      ("99999999999999999999", "minic error at 1:1: bad integer literal 99999999999999999999");
      ("a @", "minic error at 1:3: unexpected character '@'");
      ("\t$", "minic error at 1:2: unexpected character '$'");
      ("0xfg", "ok 3 tokens");
    ]

(* ------------------------------------------------------------------ *)
(* Execution semantics *)

let semantics =
  [
    expect_output "arith precedence"
      "int main() { print_int(2 + 3 * 4 - 10 / 2); return 0; }" "9";
    expect_output "modulo and shifts"
      "int main() { print_int((17 % 5) + (1 << 6) + (256 >> 4)); return 0; }"
      "82";
    expect_output "bitwise"
      "int main() { print_int((12 & 10) + (12 | 3) + (12 ^ 10) + (~0)); return 0; }"
      "28";
    expect_output "negative division truncates toward zero"
      "int main() { print_int(-7 / 2); print_int(-7 % 2); return 0; }" "-3-1";
    expect_output "comparison chain"
      "int main() { print_int((3 < 4) + (4 <= 4) + (5 > 4) + (4 >= 5) + (3 == 3) + (3 != 3)); return 0; }"
      "4";
    expect_output "short-circuit and"
      {|
long hits = 0;
long bump() { hits += 1; return 1; }
int main() {
  if (0 && bump()) {}
  if (1 && bump()) {}
  print_int(hits);
  return 0;
}
|}
      "1";
    expect_output "short-circuit or"
      {|
long hits = 0;
long bump() { hits += 1; return 0; }
int main() {
  if (1 || bump()) {}
  if (0 || bump()) {}
  print_int(hits);
  return 0;
}
|}
      "1";
    expect_output "ternary"
      "int main() { int x = 5; print_int(x > 3 ? 10 : 20); print_int(x > 9 ? 10 : 20); return 0; }"
      "1020";
    expect_output "while break continue"
      {|
int main() {
  long s = 0;
  long i = 0;
  while (1) {
    i += 1;
    if (i > 10) break;
    if (i % 2 == 0) continue;
    s += i;
  }
  print_int(s);
  return 0;
}
|}
      "25";
    expect_output "for loop"
      "int main() { long s = 0; for (int i = 0; i < 5; i++) s += i; print_int(s); return 0; }"
      "10";
    expect_output "do-while runs once"
      "int main() { long n = 0; do { n += 1; } while (0); print_int(n); return 0; }"
      "1";
    expect_output "recursion (fib)"
      {|
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { print_int(fib(15)); return 0; }
|}
      "610";
    expect_output "pointers and address-of"
      {|
int main() {
  long x = 5;
  long *p = &x;
  *p = 9;
  print_int(x + *p);
  return 0;
}
|}
      "18";
    expect_output "pointer arithmetic scales"
      {|
int main() {
  int a[4];
  int *p = a;
  a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
  print_int(*(p + 2));
  print_int((int)((long)(p + 2) - (long)p));
  return 0;
}
|}
      "38";
    expect_output "pointer difference"
      {|
int main() {
  long a[8];
  long *p = &a[6];
  long *q = &a[1];
  print_int(p - q);
  return 0;
}
|}
      "5";
    expect_output "arrays of arrays"
      {|
long m[3][4];
int main() {
  m[1][2] = 42;
  m[2][3] = 7;
  print_int(m[1][2] + m[2][3]);
  return 0;
}
|}
      "49";
    expect_output "struct members and arrows"
      {|
struct point { int x; int y; };
int main() {
  struct point p;
  struct point *q = &p;
  p.x = 3;
  q->y = 4;
  print_int(p.x * q->y);
  return 0;
}
|}
      "12";
    expect_output "struct layout with mixed fields"
      {|
struct mix { char c; long l; short s; };
int main() {
  print_int(sizeof(struct mix));
  return 0;
}
|}
      "24";
    expect_output "sizeof"
      {|
int main() {
  int a[10];
  print_int(sizeof(int));
  print_int(sizeof(long));
  print_int(sizeof(char[64]));
  print_int(sizeof(a));
  return 0;
}
|}
      "486440";
    expect_output "char narrowing wraps"
      {|
int main() {
  char c = (char)300;
  print_int(c);
  return 0;
}
|}
      "44";
    expect_output "short sign extension"
      {|
int main() {
  short s = (short)65535;
  print_int(s);
  return 0;
}
|}
      "-1";
    expect_output "compound assignments"
      {|
int main() {
  long x = 10;
  x += 5; x -= 3; x *= 4; x ^= 1; x |= 2; x &= 51;
  print_int(x);
  return 0;
}
|}
      "51";
    expect_output "pre/post increment"
      {|
int main() {
  long i = 5;
  print_int(i++);
  print_int(i);
  print_int(++i);
  print_int(i--);
  print_int(--i);
  return 0;
}
|}
      "56775";
    expect_output "globals with initializers"
      {|
long g = 40;
const char msg[8] = "hey";
int main() {
  g += 2;
  print_int(g);
  print_str(msg);
  return 0;
}
|}
      "42hey";
    expect_output "string literals intern"
      {|
int main() {
  print_int(strlen("hello"));
  print_int(memcmp("abc", "abc", 3));
  return 0;
}
|}
      "50";
    expect_output "VLA basic"
      {|
int main() {
  long n = 6;
  long a[n];
  long i = 0;
  long s = 0;
  for (i = 0; i < n; i++) a[i] = i * i;
  for (i = 0; i < n; i++) s += a[i];
  print_int(s);
  return 0;
}
|}
      "55";
  ]

let semantics =
  semantics
  @ [
      expect_output "address of function is stable and non-null"
        {|
long twice(long x) { return 2 * x; }
int main() {
  long f = (long)&twice;
  long g = (long)&twice;
  print_int(f == g);
  print_int(f != 0);
  return 0;
}
|}
        "11";
      expect_output ~input:"abcde" "read_input"
        {|
int main() {
  char buf[16];
  long n = read_input(buf, 15);
  buf[n] = 0;
  print_int(n);
  print_str(buf);
  return 0;
}
|}
        "5abcde";
      expect_output "heap malloc"
        {|
int main() {
  long *p = (long*)malloc(16);
  p[0] = 41;
  p[1] = 1;
  print_int(p[0] + p[1]);
  free(p);
  return 0;
}
|}
        "42";
      expect_output "scopes shadow"
        {|
int main() {
  long x = 1;
  {
    long x = 2;
    print_int(x);
  }
  print_int(x);
  return 0;
}
|}
        "21";
      expect_output "switch dispatch and default"
        {|
long classify(long c) {
  switch (c) {
  case 0: return 100;
  case 1:
  case 2: return 200;
  case 0 - 3: return 300;
  default: return 400;
  }
}
int main() {
  print_int(classify(0));
  print_int(classify(1));
  print_int(classify(2));
  print_int(classify(0 - 3));
  print_int(classify(9));
  return 0;
}
|}
        "100200200300400";
      expect_output "switch fallthrough and break"
        {|
int main() {
  long acc = 0;
  switch (2) {
  case 1: acc += 1;
  case 2: acc += 10;
  case 3: acc += 100; break;
  case 4: acc += 1000;
  default: acc += 10000;
  }
  print_int(acc);
  return 0;
}
|}
        "110";
      expect_output "switch without default"
        {|
int main() {
  long acc = 7;
  switch (42) { case 1: acc = 0; }
  print_int(acc);
  return 0;
}
|}
        "7";
      expect_output "continue inside switch binds the loop"
        {|
int main() {
  long s = 0;
  for (int i = 0; i < 6; i++) {
    switch (i % 3) {
    case 0: continue;
    case 1: s += 10; break;
    default: s += 1;
    }
    s += 100;
  }
  print_int(s);
  return 0;
}
|}
        "422";
      expect_output "logical ops yield 0/1"
        {|
int main() {
  print_int(5 && 3);
  print_int(0 || 7);
  print_int(!9);
  print_int(!0);
  return 0;
}
|}
        "1101";
    ]

let edge_cases =
  [
    expect_output "hex literals and escapes"
      {|
int main() {
  print_int(0x10 + 0xFF);
  print_int('\n');
  print_int('\x41');
  print_int('\0');
  return 0;
}
|}
      "27110650";
    expect_output "comments everywhere"
      "int /* c1 */ main( /* c2 */ ) { // line
  return /* deep */ 0; }"
      "";
    expect_output "deeply nested expressions"
      (Printf.sprintf "int main() { print_int(%s1%s); return 0; }"
         (String.concat "" (List.init 40 (fun _ -> "(1+")))
         (String.concat "" (List.init 40 (fun _ -> ")"))))
      "41";
    expect_output "comma declarations share the base type"
      "int main() { long a = 1, b = 2, c = 3; print_int(a + b + c); return 0; }"
      "6";
    expect_output "chained assignment is right-associative"
      "int main() { long a; long b; long c; a = b = c = 9; print_int(a + b + c); return 0; }"
      "27";
    expect_output "unary minus precedence"
      "int main() { print_int(-3 * -4 - -5); return 0; }" "17";
    expect_output "shift and mask precedence"
      "int main() { print_int(1 << 2 + 1); print_int((1 << 2) + 1); return 0; }"
      "85";
    expect_output "sizeof expression uses static type"
      {|
int main() {
  struct p { long x; long y; };
  return 0;
}
struct q { long x; char c; };
long f() { struct q v; return sizeof(v); }
|}
      "" [@warning "-a"];
  ]

(* the struct-in-function above is not supported; keep the valid set *)
let edge_cases =
  List.filteri (fun i _ -> i < List.length edge_cases - 1) edge_cases
  @ [
      expect_output "sizeof an expression"
        {|
struct q { long x; char c; };
long f() { struct q v; v.x = 0; return sizeof(v); }
int main() { print_int(f()); return 0; }
|}
        "16";
      expect_output "arrays decay in calls"
        {|
long first(long *p) { return p[0]; }
int main() { long a[3]; a[0] = 5; print_int(first(a)); return 0; }
|}
        "5";
      expect_output "address of array element across calls"
        {|
void bump(long *cell) { *cell += 1; }
int main() {
  long a[4];
  a[2] = 10;
  bump(&a[2]);
  print_int(a[2]);
  return 0;
}
|}
        "11";
      expect_output "struct pointer chains"
        {|
struct node { long v; struct node *next; };
int main() {
  struct node a; struct node b; struct node c;
  a.v = 1; b.v = 2; c.v = 3;
  a.next = &b; b.next = &c; c.next = (struct node*)0;
  print_int(a.next->next->v);
  return 0;
}
|}
        "3";
      expect_output "ternary nests"
        "int main() { long x = 2; print_int(x == 1 ? 10 : x == 2 ? 20 : 30); return 0; }"
        "20";
      expect_output "empty statements"
        "int main() { long i = 0; ; while (i < 3) { i += 1; ; } ; print_int(i); return 0; }"
        "3";
      expect_output "empty for pieces"
        "int main() { long i = 0; for (;;) { i += 1; if (i > 4) break; } print_int(i); return 0; }"
        "5";
    ]

(* ------------------------------------------------------------------ *)
(* Diagnostics *)

let diagnostics =
  [
    expect_error "unknown variable" "int main() { return x; }" "unknown identifier";
    expect_error "unknown function" "int main() { zap(); return 0; }" "unknown identifier";
    expect_error "arity" "long f(long a) { return a; } int main() { return (int)f(1, 2); }" "expects 1 argument";
    expect_error "void misuse" "void v() {} int main() { long x = 0; x = v(); return 0; }" "result of a void";
    expect_error "break outside loop" "int main() { break; return 0; }" "break outside";
    expect_error "aggregate assignment"
      "struct p { int x; }; int main() { struct p a; struct p b; a = b; return 0; }"
      "cannot";
    expect_error "redeclaration" "int main() { long x = 1; long x = 2; return 0; }" "redeclaration";
    expect_error "return value from void" "void f() { return 3; } int main() { return 0; }" "void function";
    expect_error "bad member" "struct p { int x; }; int main() { struct p a; a.y = 1; return 0; }" "no member";
    expect_error "deref non-pointer" "int main() { long x = 1; return (int)*x; }" "non-pointer";
    expect_error "syntax" "int main() { return 0 }" "expected ;";
    expect_error "non-constant case"
      "int main() { long x = 1; switch (x) { case x: return 1; } return 0; }"
      "constant";
    expect_error "default not last"
      "int main() { switch (1) { default: return 1; case 2: return 2; } return 0; }"
      "last";
    expect_error "continue in bare switch"
      "int main() { switch (1) { case 1: continue; } return 0; }"
      "continue outside";
    expect_error "global defined twice" "long g; long g; int main() { return 0; }"
      "redefinition of global g";
    expect_error "function defined twice"
      "int f() { return 1; } int f() { return 2; } int main() { return 0; }"
      "redefinition of function f";
  ]

(* void-call-result case: our checker reports this via the verifier
   rule; make sure the message above matches what Lower emits. *)

let test_builtins_in_sync () =
  (* every builtin Lower declares must be resolvable by the machine *)
  let declared = List.map (fun (n, _, _) -> n) Minic.Lower.builtins in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " known to machine") true
        (List.mem n Machine.Exec.builtin_names))
    declared;
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " declared in minic") true (List.mem n declared))
    Machine.Exec.builtin_names

let test_verified_ir () =
  (* lowering output always passes the verifier (Lower runs it; make
     sure a nontrivial program gets through) *)
  let prog =
    Minic.Driver.compile
      {|
struct node { long v; struct node *next; };
long sum_list(struct node *n) {
  long s = 0;
  while (n != (struct node*)0) {
    s += n->v;
    n = n->next;
  }
  return s;
}
int main() {
  struct node a;
  struct node b;
  a.v = 1; b.v = 2;
  a.next = &b;
  b.next = (struct node*)0;
  print_int(sum_list(&a));
  return 0;
}
|}
  in
  Alcotest.(check int) "verifies" 0 (List.length (Ir.Verifier.verify prog))

(* Progen guarantees: byte-identical output per seed, and every
   function — helpers and main — declares at least one array local and
   one scalar local (the permutation passes need both kinds in every
   frame). *)
let test_progen_determinism () =
  Alcotest.(check string) "same seed, same program"
    (Minic.Progen.generate ~seed:123L)
    (Minic.Progen.generate ~seed:123L);
  Alcotest.(check bool) "different seeds differ" true
    (Minic.Progen.generate ~seed:123L <> Minic.Progen.generate ~seed:124L);
  Alcotest.(check (list string)) "generate_many deterministic"
    (Minic.Progen.generate_many ~seed:55L 5)
    (Minic.Progen.generate_many ~seed:55L 5)

(* The tree-printed generator against the [Printf] original it replaced
   (test/progen_ref.ml, verbatim), in both shapes: consecutive ranges at
   the seed bases the repository's corpora start from — the campaign
   CLI and E16 (1000), the test corpora (1), crossval (100), the attack
   surface (9001) and the perf benchmark's campaigns (seed roots 1 and
   7) — plus random 64-bit seeds. *)
let progen_matches_ref seed =
  String.equal (Minic.Progen.generate ~seed) (Progen_ref.generate ~seed)
  && String.equal
       (Minic.Progen.generate_leaky ~seed)
       (Progen_ref.generate_leaky ~seed)

let test_progen_matches_ref_ranges () =
  let perf_base root =
    Int64.logand
      (Sutil.Simrng.split_seed ~root ~id:"campaign/progen")
      0xFFFF_FFFFL
  in
  List.iter
    (fun base ->
      for i = 0 to 2_999 do
        let seed = Int64.add base (Int64.of_int i) in
        if not (progen_matches_ref seed) then
          Alcotest.failf "seed %Ld: Progen differs from the reference" seed
      done)
    [ 1000L; 1L; 100L; 9001L; perf_base 1L; perf_base 7L ]

let prop_progen_matches_ref =
  QCheck2.Test.make ~count:4000
    ~name:"Progen matches the reference on random seeds"
    ~print:Int64.to_string QCheck2.Gen.int64 progen_matches_ref

let test_progen_locals_shape () =
  List.iter
    (fun seed ->
      let prog = Minic.Driver.compile (Minic.Progen.generate ~seed) in
      List.iter
        (fun (f : Ir.Func.t) ->
          let arrays = ref 0 and scalars = ref 0 in
          (match f.blocks with
          | entry :: _ ->
              List.iter
                (function
                  | Ir.Instr.Alloca { ty = Ir.Ty.Array _; count = None; _ } ->
                      incr arrays
                  | Ir.Instr.Alloca { count = None; _ } -> incr scalars
                  | _ -> ())
                entry.instrs
          | [] -> ());
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld: %s has an array local" seed f.name)
            true (!arrays >= 1);
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld: %s has a scalar local" seed f.name)
            true (!scalars >= 1))
        prog.Ir.Prog.funcs)
    [ 1L; 2L; 3L; 4L; 5L; 42L; 9001L ]

(* The same sources, lowered: the digest of their printed IR pins the
   instruction order of every lowering path, entry-block allocas
   included. *)
let test_lowered_ir_golden () =
  let buf = Buffer.create (1 lsl 22) in
  List.iter
    (fun src -> Buffer.add_string buf (Ir.Printer.prog_to_string (Minic.Driver.compile src)))
    (golden_sources ());
  Alcotest.(check string)
    "lowered-IR digest" "7938423b12c70b6d914bbac76131e292"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The exit-code contract under malformed input: a Progen source with 1
   to 4 bytes substituted either compiles or is rejected with a
   diagnostic; no other exception escapes the front end. *)
let mutant_sources = Array.of_seq (Seq.map snd (Minic.Progen.range ~seed:7L 64))

(* Mostly bytes MiniC uses, so mutants get past the lexer into the
   parser and the lowering; any byte otherwise. *)
let mutant_byte =
  QCheck2.Gen.(
    frequency
      [ (1, char); (3, oneofl (List.of_seq (String.to_seq "(){}[];,+-*/%&|^~!<>=?:.'\"\\0x19az_ \n"))) ])

let mutate (k, subs) =
  let b = Bytes.of_string mutant_sources.(k) in
  List.iter (fun (pos, c) -> Bytes.set b pos c) subs;
  Bytes.to_string b

let prop_mutants_keep_contract =
  QCheck2.Test.make ~count:4000 ~name:"mutated sources compile or diagnose"
    ~print:(fun (k, subs) ->
      Printf.sprintf "source %d, substitutions %s" k
        (String.concat "; " (List.map (fun (pos, c) -> Printf.sprintf "%d:%C" pos c) subs)))
    QCheck2.Gen.(
      let* k = int_bound (Array.length mutant_sources - 1) in
      let len = String.length mutant_sources.(k) in
      let+ subs = list_size (int_range 1 4) (pair (int_bound (len - 1)) mutant_byte) in
      (k, subs))
    (fun mutant ->
      match Minic.Driver.compile_result (mutate mutant) with Ok _ | Error _ -> true)

let () =
  Alcotest.run "minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "golden token streams" `Quick
            test_lexer_golden_streams;
          Alcotest.test_case "error cases" `Quick test_lexer_error_cases;
        ] );
      ("semantics", semantics);
      ("edge-cases", edge_cases);
      ("diagnostics", diagnostics);
      ( "integration",
        [
          Alcotest.test_case "builtins in sync" `Quick test_builtins_in_sync;
          Alcotest.test_case "verified IR" `Quick test_verified_ir;
          Alcotest.test_case "lowered IR golden" `Quick test_lowered_ir_golden;
        ] );
      ( "progen",
        [
          Alcotest.test_case "determinism" `Quick test_progen_determinism;
          Alcotest.test_case "locals shape" `Quick test_progen_locals_shape;
          Alcotest.test_case "matches reference on seed ranges" `Quick
            test_progen_matches_ref_ranges;
          QCheck_alcotest.to_alcotest prop_progen_matches_ref;
        ] );
      ("robustness", [ QCheck_alcotest.to_alcotest prop_mutants_keep_contract ]);
    ]
