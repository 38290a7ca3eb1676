open Helpers

let av = Affine.var
let ac = Affine.const
let ( ++ ) = Affine.add
let ( -- ) = Affine.sub

(* The driver contexts these goals come from (§5.1): K in [1, N-1],
   KK in [K, K+KS-1], KS >= 1, N >= 1. *)
let lu_ctx =
  let ctx = Symbolic.empty in
  let ctx = Symbolic.assume_pos ctx "KS" in
  let ctx = Symbolic.assume_pos ctx "N" in
  let ctx = Symbolic.assume_ge ctx (av "K") (ac 1) in
  let ctx = Symbolic.assume_le ctx (av "K") (av "N" -- ac 1) in
  let ctx = Symbolic.assume_ge ctx (av "KK") (av "K") in
  Symbolic.assume_le ctx (av "KK") (av "K" ++ av "KS" -- ac 1)

let lu_goals () =
  let t = Symbolic.prove_le lu_ctx and f a b = not (Symbolic.prove_le lu_ctx a b) in
  check_bool "KK+1 <= K+KS" true (t (av "KK" ++ ac 1) (av "K" ++ av "KS"));
  check_bool "K+KS-1 < K+KS" true
    (Symbolic.prove_lt lu_ctx (av "K" ++ av "KS" -- ac 1) (av "K" ++ av "KS"));
  check_bool "K <= N-1" true (t (av "K") (av "N" -- ac 1));
  check_bool "not K+KS-1 <= N-1" true (f (av "K" ++ av "KS" -- ac 1) (av "N" -- ac 1));
  check_bool "K+1 > K" true (Symbolic.prove_gt lu_ctx (av "K" ++ ac 1) (av "K"));
  (* with the planning assumption the full-block fact becomes provable *)
  let plan = Symbolic.assume_le lu_ctx (av "K" ++ av "KS" -- ac 1) (av "N" -- ac 1) in
  check_bool "planning: K+KS-1 < N" true
    (Symbolic.prove_lt plan (av "K" ++ av "KS" -- ac 1) (av "N"))

let unknown_is_sound () =
  let ctx = Symbolic.empty in
  check_bool "nothing known" false (Symbolic.prove_ge ctx (av "A") (av "B"));
  check_bool "const" true (Symbolic.prove_ge ctx (ac 3) (ac 3));
  check_bool "const strict" true (Symbolic.prove_gt ctx (ac 4) (ac 3));
  check_bool "false const" false (Symbolic.prove_gt ctx (ac 3) (ac 3))

let compare_cases () =
  let ctx = Symbolic.assume_ge Symbolic.empty (av "X") (av "Y" ++ ac 2) in
  (match Symbolic.compare_ ctx (av "X") (av "Y") with
  | Symbolic.Gt -> ()
  | _ -> Alcotest.fail "expected Gt");
  match Symbolic.compare_ ctx (av "Y") (av "Z") with
  | Symbolic.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown"

let chained_facts () =
  (* A transitive chain the directed search must follow: A >= B, B >= C,
     C >= D+1 |- A > D. *)
  let ctx = Symbolic.empty in
  let ctx = Symbolic.assume_ge ctx (av "A") (av "B") in
  let ctx = Symbolic.assume_ge ctx (av "B") (av "C") in
  let ctx = Symbolic.assume_ge ctx (av "C") (av "D" ++ ac 1) in
  check_bool "chain" true (Symbolic.prove_gt ctx (av "A") (av "D"))

let of_loop_context_minmax () =
  let open Builder in
  let strip =
    match
      do_ "KK" (v "K") (Expr.min_ (v "K" +! v "KS" -! i 1) (v "N" -! i 1)) []
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let ctx = Symbolic.of_loop_context [ strip ] in
  check_bool "KK <= K+KS-1 from MIN arm" true
    (Symbolic.prove_le ctx (av "KK") (av "K" ++ av "KS" -- ac 1));
  check_bool "KK <= N-1 from MIN arm" true
    (Symbolic.prove_le ctx (av "KK") (av "N" -- ac 1));
  check_bool "KK >= K" true (Symbolic.prove_ge ctx (av "KK") (av "K"))

let composite_bounds () =
  (* The shapes unroll-and-jam leaves behind: a MIN buried under
     arithmetic in an upper bound still yields both one-sided facts. *)
  let open Builder in
  let l =
    match
      do_ "I" (v "K" +! i 1)
        (Expr.min_ (v "N") (v "K" +! v "KS") -! i 3)
        []
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let ctx = Symbolic.of_loop_context [ l ] in
  check_bool "I <= N-3" true
    (Symbolic.prove_le ctx (av "I") (av "N" -- ac 3));
  check_bool "I <= K+KS-3" true
    (Symbolic.prove_le ctx (av "I") (av "K" ++ av "KS" -- ac 3));
  check_bool "I >= K+1" true
    (Symbolic.prove_ge ctx (av "I") (av "K" ++ ac 1))

let disjunctive_cases () =
  (* lo = MAX(K+1, MIN(N, K+KS)+1): the MAX arms hold conjunctively but
     the MIN forks — I >= N+1 or I >= K+KS+1.  In either case I > KK
     for KK <= MIN(K+KS-1, N-1), which the single conjunctive context
     cannot establish. *)
  let open Builder in
  let l =
    match
      do_ "I"
        (Expr.max_ (v "K" +! i 1) (Expr.min_ (v "N") (v "K" +! v "KS") +! i 1))
        (v "N") []
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let kk_hi_arms = [ av "K" ++ av "KS" -- ac 1; av "N" -- ac 1 ] in
  let cases = Symbolic.with_loops_cases Symbolic.empty [ l ] in
  check_bool "more than one case" true (List.length cases > 1);
  let above_some_arm ctx =
    List.exists (fun arm -> Symbolic.prove_gt ctx (av "I") arm) kk_hi_arms
  in
  check_bool "I above the strip in every case" true
    (List.for_all above_some_arm cases);
  let conj = Symbolic.with_loops Symbolic.empty [ l ] in
  check_bool "conjunctive context cannot prove it" false
    (above_some_arm conj);
  check_bool "conjunctive core keeps the MAX arm" true
    (Symbolic.prove_ge conj (av "I") (av "K" ++ ac 1))

(* Random (fact set, query) pairs drawn from a fixed Lcg seed.  Either
   facts over a few shared variables, with a query that is random or a
   small combination of facts plus slack (so both answers occur); or a
   chain [V1 >= V2 >= ... >= Vn] with some two-step shortcuts, shuffled,
   asking [V1 >= Vn - c]: its proofs run near the depth budget, and the
   same residual is reached along paths of different lengths. *)
let random_affine rng ~vars ~max_coeff =
  List.fold_left
    (fun acc v ->
      if Lcg.bool rng 0.5 then
        Affine.add acc
          (Affine.scale (Lcg.int rng ((2 * max_coeff) + 1) - max_coeff) (av v))
      else acc)
    (ac (Lcg.int rng 11 - 5))
    vars

let shuffle rng l =
  List.map snd
    (List.sort compare (List.map (fun x -> (Lcg.int rng 1_000_000, x)) l))

let chain_problem rng =
  let n = 5 + Lcg.int rng 6 in
  let v i = av (Printf.sprintf "V%d" i) in
  let steps = List.init (n - 1) (fun i -> v (i + 1) -- v (i + 2)) in
  let shortcuts =
    List.filter_map
      (fun i -> if Lcg.bool rng 0.3 then Some (v i -- v (i + 2)) else None)
      (List.init (n - 2) (fun i -> i + 1))
  in
  (shuffle rng (steps @ shortcuts), v 1 -- v n ++ ac (Lcg.int rng 3 - 1))

let random_problem rng =
  if Lcg.bool rng 0.3 then chain_problem rng
  else
  let vars = [ "A"; "B"; "C"; "K.1"; "N" ] in
  let facts =
    List.filter
      (fun f -> Affine.is_const f = None)
      (List.init (3 + Lcg.int rng 7) (fun _ ->
           random_affine rng ~vars ~max_coeff:2))
  in
  let query =
    match facts with
    | f :: g :: _ when Lcg.bool rng 0.5 ->
        let ( ** ) = Affine.scale in
        (((1 + Lcg.int rng 2) ** f) ++ (Lcg.int rng 2 ** g)) ++ ac (Lcg.int rng 5 - 2)
    | _ -> random_affine rng ~vars ~max_coeff:3
  in
  (facts, query)

(* Every pair is asked four ways: without a memo; through one memo
   shared by the whole run (so later pairs meet earlier answers, and
   the memo starts over several times); and both again with the facts
   assumed in reverse order, which must hit the same memo entry. *)
let memo_matches_oracle () =
  let rng = Lcg.create 2024 in
  let memo = Symbolic.create_memo () in
  let proved = ref 0 and pairs = 2000 in
  for i = 1 to pairs do
    let facts, query = random_problem rng in
    let expected = Symbolic_oracle.prove_nonneg facts query in
    if expected then incr proved;
    let what = Printf.sprintf "pair %d: %s >= 0" i (Affine.to_string query) in
    List.iter
      (fun (how, base, facts) ->
        let ctx = List.fold_left Symbolic.assume_nonneg base facts in
        check_bool (what ^ how) expected (Symbolic.prove_nonneg ctx query))
      [
        ("", Symbolic.empty, facts);
        (" (memo)", Symbolic.with_memo memo Symbolic.empty, facts);
        (" (reversed)", Symbolic.empty, List.rev facts);
        (" (reversed, memo)", Symbolic.with_memo memo Symbolic.empty, List.rev facts);
      ]
  done;
  check_bool "both answers occur" true
    (!proved > pairs / 10 && !proved < pairs * 9 / 10)

let gen_consts =
  QCheck2.Gen.(pair (int_range (-50) 50) (int_range (-50) 50))

let suite =
  ( "symbolic",
    [
      case "LU driver goals" lu_goals;
      case "unknown is sound" unknown_is_sound;
      case "compare" compare_cases;
      case "transitive chains" chained_facts;
      case "loop context with MIN bound" of_loop_context_minmax;
      case "composite bounds decompose" composite_bounds;
      case "disjunctive MIN/MAX cases" disjunctive_cases;
      case "memoized search agrees with the unmemoized oracle"
        memo_matches_oracle;
      qcase "constants decide exactly" gen_consts (fun (a, b) ->
          let ctx = Symbolic.empty in
          Symbolic.prove_ge ctx (ac a) (ac b) = (a >= b));
      qcase "assumed facts are provable" gen_consts (fun (a, b) ->
          let lo, hi = (min a b, max a b) in
          let ctx = Symbolic.assume_ge Symbolic.empty (av "X") (ac lo) in
          let ctx = Symbolic.assume_le ctx (av "X") (ac hi) in
          Symbolic.prove_ge ctx (av "X") (ac lo)
          && Symbolic.prove_le ctx (av "X") (ac hi)
          && Symbolic.prove_le ctx (av "X") (ac (hi + 3)));
    ] )
