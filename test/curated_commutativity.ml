(* The paper's §5.2 commutativity matcher, kept as a test oracle for the
   derived (fractal symbolic analysis) prover: syntactic row-swap and
   whole-column-update patterns among the immediate body statements of
   the strip loop. *)

(* T = A(r1, j); A(r1, j) = A(r2, j); A(r2, j) = T  within DO j. *)
let swap_body j = function
  | [
      Stmt.Assign (t, [], Stmt.Ref (a1, [ r1; Expr.Var j1 ]));
      Stmt.Assign (a2, [ r1'; Expr.Var j2 ], Stmt.Ref (a3, [ r2; Expr.Var j3 ]));
      Stmt.Assign (a4, [ r2'; Expr.Var j4 ], Stmt.Fvar t');
    ] ->
      String.equal t t'
      && String.equal a1 a2 && String.equal a2 a3 && String.equal a3 a4
      && List.for_all (String.equal j) [ j1; j2; j3; j4 ]
      && Expr.equal r1 r1' && Expr.equal r2 r2'
      && (not (Expr.mentions j r1))
      && not (Expr.mentions j r2)
  | _ -> false

let is_row_swap = function
  | Stmt.Loop l -> swap_body l.index l.body
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> false

(* A(i, j) = A(i, j) -/+ A(i, k) * A(k, j), column index [i] being the
   innermost loop's index. *)
let update_assign i = function
  | Stmt.Assign
      ( a,
        [ Expr.Var i1; j1 ],
        Stmt.Fbin
          ( (Stmt.FSub | Stmt.FAdd),
            Stmt.Ref (a2, [ Expr.Var i2; j2 ]),
            Stmt.Fbin
              (Stmt.FMul, Stmt.Ref (a3, [ Expr.Var i3; k1 ]), Stmt.Ref (a4, [ k2; j3 ]))
          ) ) ->
      String.equal a a2 && String.equal a2 a3 && String.equal a3 a4
      && List.for_all (String.equal i) [ i1; i2; i3 ]
      && Expr.equal j1 j2 && Expr.equal j2 j3 && Expr.equal k1 k2
      && (not (Expr.mentions i j1))
      && not (Expr.mentions i k1)
  | _ -> false

let rec is_column_update = function
  | Stmt.Loop l -> (
      match l.body with
      | [ (Stmt.Loop _ as inner) ] -> is_column_update inner
      | [ stmt ] -> update_assign l.index stmt
      | _ -> false)
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> false

let body_stmt_of_path (path : Stmt.path) =
  match path with
  | Stmt.I 0 :: Stmt.I k :: _ -> Some k
  | _ -> None

(* A fresh oracle for [Blocker.block_lu_with ~may_ignore] and the count
   of dependences it has been asked about. *)
let oracle () =
  let lookups = ref 0 in
  let may_ignore ~ctx:_ (l : Stmt.loop) (dep : Dependence.t) =
    incr lookups;
    let body = Array.of_list l.body in
    match
      (body_stmt_of_path dep.source.path, body_stmt_of_path dep.sink.path)
    with
    | Some a, Some b
      when a <> b && a < Array.length body && b < Array.length body ->
        let sa = body.(a) and sb = body.(b) in
        (is_row_swap sa && is_column_update sb)
        || (is_column_update sa && is_row_swap sb)
    | _ -> false
  in
  (lookups, may_ignore)
