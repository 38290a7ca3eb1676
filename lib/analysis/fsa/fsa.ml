type verdict = Equivalent | Unknown of string

type proof = {
  rule : string;
  goal : string;
  verdict : verdict;
  detail : string;
  children : proof list;
}

type result = { verdict : verdict; proof : proof; cases : int }

let max_atoms = 8

module S = Set.Make (String)

(* ---- state equivalence ----------------------------------------------- *)

let probe_names rank = List.init rank (fun i -> Printf.sprintf "%%p%d" (i + 1))

let assume_atom ctx a v =
  match (a, v) with
  | Fsa_term.Ale (x, y), true -> Symbolic.assume_le ctx x y
  | Fsa_term.Ale (x, y), false ->
      Symbolic.assume_ge ctx x (Affine.add y (Affine.const 1))
  | Fsa_term.Aeq (x, y), true ->
      Symbolic.assume_le (Symbolic.assume_ge ctx x y) x y
  | Fsa_term.Aeq _, false -> ctx

(* Is atom [a], assigned [v], refuted by [ctx]: is its negation
   provable? *)
let refuted ctx a v =
  match (a, v) with
  | Fsa_term.Ale (x, y), true -> Symbolic.prove_gt ctx x y
  | Fsa_term.Ale (x, y), false -> Symbolic.prove_le ctx x y
  | Fsa_term.Aeq (x, y), true ->
      Symbolic.prove_lt ctx x y || Symbolic.prove_gt ctx x y
  | Fsa_term.Aeq (x, y), false -> Symbolic.prove_eq ctx x y

let case_desc atoms truth =
  String.concat " & "
    (List.map
       (fun a ->
         let s = Fsa_term.atom_to_string a in
         if Hashtbl.find truth (Fsa_term.atom_key a) then s
         else "not(" ^ s ^ ")")
       atoms)

let equiv_states ~ctx ?(ignore_scalars = []) (st_a : Fsa_eval.state)
    (st_b : Fsa_eval.state) =
  try
    if st_a.ipoison <> [] || st_b.ipoison <> [] then
      Error "an integer scalar has an unknown symbolic value"
    else begin
      let int_names =
        List.sort_uniq String.compare
          (List.map fst st_a.ints @ List.map fst st_b.ints)
      in
      let int_of (st : Fsa_eval.state) v =
        match List.assoc_opt v st.ints with
        | Some a -> a
        | None -> Affine.var v
      in
      match
        List.find_opt
          (fun v -> not (Symbolic.prove_eq ctx (int_of st_a v) (int_of st_b v)))
          int_names
      with
      | Some v -> Error (Printf.sprintf "integer scalar %s differs" v)
      | None ->
          let arr_names =
            List.sort_uniq String.compare
              (List.filter_map
                 (fun (a, us) -> if us = [] then None else Some a)
                 (st_a.arrays @ st_b.arrays))
          in
          let rank_of a =
            let side (st : Fsa_eval.state) =
              match List.assoc_opt a st.arrays with
              | Some (u :: _) -> Some (List.length u.Fsa_eval.upat)
              | _ -> None
            in
            match (side st_a, side st_b) with
            | Some r, _ | None, Some r -> r
            | None, None -> 1
          in
          let pairs =
            List.map
              (fun a ->
                let names = probe_names (rank_of a) in
                let probe = List.map Affine.var names in
                ( Printf.sprintf "%s(%s)" a (String.concat "," names),
                  Fsa_eval.read ~ctx st_a a probe,
                  Fsa_eval.read ~ctx st_b a probe ))
              arr_names
          in
          let float_names =
            List.filter
              (fun s -> not (List.mem s ignore_scalars))
              (List.sort_uniq String.compare
                 (List.map fst st_a.floats @ List.map fst st_b.floats))
          in
          let pairs =
            pairs
            @ List.map
                (fun s -> (s, Fsa_eval.scalar st_a s, Fsa_eval.scalar st_b s))
                float_names
          in
          let atoms =
            let seen = Hashtbl.create 16 in
            List.concat_map
              (fun (_, ta, tb) ->
                List.filter
                  (fun a ->
                    let k = Fsa_term.atom_key a in
                    if Hashtbl.mem seen k then false
                    else begin
                      Hashtbl.add seen k ();
                      true
                    end)
                  (Fsa_term.atoms ta @ Fsa_term.atoms tb))
              pairs
          in
          let n = List.length atoms in
          if n > max_atoms then
            Error
              (Printf.sprintf
                 "%d undecidable conditions exceed the case-split budget" n)
          else begin
            let atoms_arr = Array.of_list atoms in
            let truth = Hashtbl.create 16 in
            let kept = ref 0 in
            let exception Mismatch of string in
            let rec go i ctx' =
              if i = n then begin
                (* Prune truth assignments the context refutes: an
                   atom whose provable value contradicts its assigned
                   one makes the case infeasible.  (When the assumed
                   facts are themselves contradictory, e.g. [%p1 = 1]
                   and [%p1 = 2] together, anything proves, so the
                   case is refuted too.) *)
                let consistent =
                  Array.for_all
                    (fun a ->
                      let v = Hashtbl.find truth (Fsa_term.atom_key a) in
                      not (refuted ctx' a v))
                    atoms_arr
                in
                if consistent then begin
                  incr kept;
                  let tr k = Hashtbl.find truth k in
                  List.iter
                    (fun (name, ta, tb) ->
                      if
                        not
                          (Fsa_term.equal_under ctx' (Fsa_term.resolve tr ta)
                             (Fsa_term.resolve tr tb))
                      then
                        raise
                          (Mismatch
                             (if n = 0 then name ^ " differs"
                              else
                                Printf.sprintf "%s differs when %s" name
                                  (case_desc atoms truth))))
                    pairs
                end
              end
              else begin
                let a = atoms_arr.(i) in
                let k = Fsa_term.atom_key a in
                (* Refutation only grows with the facts, so an atom
                   refuted as soon as it is assumed is refuted in every
                   case below: skip them all (the check above would
                   discard each one). *)
                let branch v =
                  match assume_atom ctx' a v with
                  | ctx2 ->
                      if not (refuted ctx2 a v) then begin
                        Hashtbl.replace truth k v;
                        go (i + 1) ctx2
                      end
                  | exception Invalid_argument _ -> ()
                in
                branch true;
                branch false
              end
            in
            match go 0 ctx with
            | () -> Ok !kept
            | exception Mismatch m -> Error m
          end
    end
  with Fsa_eval.Unsupported m -> Error ("unsupported: " ^ m)

(* ---- proofs ----------------------------------------------------------- *)

let rec proof_lines indent (p : proof) =
  let pad = String.make (2 * indent) ' ' in
  let v =
    match p.verdict with
    | Equivalent -> "equivalent"
    | Unknown m -> "unknown (" ^ m ^ ")"
  in
  let detail = if p.detail = "" then "" else ": " ^ p.detail in
  (Printf.sprintf "%s[%s] %s -> %s%s" pad p.rule p.goal v detail)
  :: List.concat_map (proof_lines (indent + 1)) p.children

let proof_to_lines p = proof_lines 0 p

let blurb stmts =
  let s = String.concat "; " (List.map Stmt.to_string stmts) in
  let s =
    String.concat " "
      (List.filter
         (fun w -> w <> "")
         (String.split_on_char ' '
            (String.map (function '\n' | '\t' -> ' ' | c -> c) s)))
  in
  if String.length s > 60 then String.sub s 0 57 ^ "..." else s

let observe r =
  let evidence =
    [
      ("proof", Obs.Str (String.concat "\n" (proof_to_lines r.proof)));
      ("cases", Obs.Int r.cases);
    ]
  in
  (match r.verdict with Equivalent -> Ok () | Unknown m -> Error m)
  |> Obs.decide ~transform:"fsa" ~target:r.proof.goal ~evidence
  |> ignore;
  r

(* ---- direct equivalence ---------------------------------------------- *)

let direct ~ctx ~ignore_scalars p q =
  match
    let st_a = Fsa_eval.eval_block ~ctx p in
    let st_b = Fsa_eval.eval_block ~ctx q in
    equiv_states ~ctx ~ignore_scalars st_a st_b
  with
  | r -> r
  | exception Fsa_eval.Unsupported m -> Error ("unsupported: " ^ m)

let equivalent ?(ignore_scalars = []) ~ctx p q =
  let goal = Printf.sprintf "equal [%s] [%s]" (blurb p) (blurb q) in
  let r =
    match direct ~ctx ~ignore_scalars p q with
    | Ok cases ->
        {
          verdict = Equivalent;
          proof =
            {
              rule = "direct";
              goal;
              verdict = Equivalent;
              detail =
                Printf.sprintf "states match in all %d feasible cases" cases;
              children = [];
            };
          cases;
        }
    | Error why ->
        let v = Unknown why in
        {
          verdict = v;
          proof = { rule = "direct"; goal; verdict = v; detail = why; children = [] };
          cases = 0;
        }
  in
  observe r

(* ---- the fractal recursion ------------------------------------------- *)

let unit_step (l : Stmt.loop) =
  match Expr.simplify l.step with Expr.Int 1 -> true | _ -> false

(* The fractal step only helps when the direct comparison was too
   complex to carry out; a definite state mismatch is an answer (the
   rules are semantics-preserving, so subgoals would mismatch too). *)
let too_complex why =
  let contains needle =
    let nh = String.length why and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub why i nn = needle || go (i + 1)) in
    go 0
  in
  contains "unsupported" || contains "case-split budget"
  || contains "unknown symbolic value"

(* Prove [f s] for each [s] in order, stopping after the first failure:
   a conjunction that has already failed cannot succeed. *)
let rec prove_all f = function
  | [] -> []
  | s :: rest ->
      let r = f s in
      if r.verdict = Equivalent then r :: prove_all f rest else [ r ]

let rec commute_rec ~dctx ~fuel ~ctx ~ignore_scalars p q =
  let goal = Printf.sprintf "commute [%s] with [%s]" (blurb p) (blurb q) in
  if fuel <= 0 then
    let v = Unknown "fuel exhausted" in
    {
      verdict = v;
      proof = { rule = "fuel"; goal; verdict = v; detail = ""; children = [] };
      cases = 0;
    }
  else
    match direct ~ctx ~ignore_scalars (p @ q) (q @ p) with
    | Ok cases ->
        {
          verdict = Equivalent;
          proof =
            {
              rule = "direct";
              goal;
              verdict = Equivalent;
              detail =
                Printf.sprintf "reordered states match in all %d feasible cases"
                  cases;
              children = [];
            };
          cases;
        }
    | Error why when not (too_complex why) ->
        let v = Unknown why in
        {
          verdict = v;
          proof =
            { rule = "direct"; goal; verdict = v; detail = why; children = [] };
          cases = 0;
        }
    | Error why ->
        (* Too complex to compare directly: simplify both sides the
           same way and recurse on the (smaller) obligations. *)
        let sub = commute_rec ~dctx ~fuel:(fuel - 1) ~ignore_scalars in
        let success = ref None in
        let failures = ref [] in
        let try_rule rule subgoals =
          if !success = None then
            match subgoals () with
            | None -> ()
            | Some children ->
                let cases = List.fold_left (fun n r -> n + r.cases) 0 children in
                let cp = List.map (fun r -> r.proof) children in
                if List.for_all (fun r -> r.verdict = Equivalent) children then
                  success :=
                    Some
                      {
                        verdict = Equivalent;
                        proof =
                          {
                            rule;
                            goal;
                            verdict = Equivalent;
                            detail = "";
                            children = cp;
                          };
                        cases;
                      }
                else
                  failures :=
                    {
                      rule;
                      goal;
                      verdict = Unknown "a subgoal could not be proved";
                      detail = "";
                      children = cp;
                    }
                    :: !failures
        in
        try_rule "split-left" (fun () ->
            match p with
            | _ :: _ :: _ -> Some (prove_all (fun s -> sub ~ctx [ s ] q) p)
            | _ -> None);
        try_rule "split-right" (fun () ->
            match q with
            | _ :: _ :: _ -> Some (prove_all (fun s -> sub ~ctx p [ s ]) q)
            | _ -> None);
        try_rule "generic-iteration-right" (fun () ->
            match q with
            | [ Stmt.Loop l ] when unit_step l ->
                let th = Derivation.fresh_generic dctx l.index in
                let ctx' = Symbolic.with_loops ctx [ { l with index = th } ] in
                let body = Stmt.subst_block [ (l.index, Expr.var th) ] l.body in
                Some [ sub ~ctx:ctx' p body ]
            | _ -> None);
        try_rule "generic-iteration-left" (fun () ->
            match p with
            | [ Stmt.Loop l ] when unit_step l ->
                let th = Derivation.fresh_generic dctx l.index in
                let ctx' = Symbolic.with_loops ctx [ { l with index = th } ] in
                let body = Stmt.subst_block [ (l.index, Expr.var th) ] l.body in
                Some [ sub ~ctx:ctx' body q ]
            | _ -> None);
        (match !success with
        | Some r -> r
        | None ->
            let v = Unknown why in
            {
              verdict = v;
              proof =
                {
                  rule = "direct";
                  goal;
                  verdict = v;
                  detail = why;
                  children = List.rev !failures;
                };
              cases = 0;
            })

let commute ?(dctx = Derivation.create ()) ?(fuel = 8) ?(ignore_scalars = [])
    ~ctx p q =
  let ctx = Derivation.bind dctx ctx in
  observe (commute_rec ~dctx ~fuel ~ctx ~ignore_scalars p q)

(* ---- auxiliary fragment analyses ------------------------------------- *)

type interval = { ilo : Affine.t option; ihi : Affine.t option }

let unknown_iv = { ilo = None; ihi = None }

let int_ranges ~ctx stmts =
  let lookup env v =
    match List.assoc_opt v env with
    | Some iv -> iv
    | None ->
        let a = Affine.var v in
        { ilo = Some a; ihi = Some a }
  in
  let ival env e =
    match Affine.of_expr e with
    | None -> unknown_iv
    | Some a ->
        let c = Affine.const (Affine.constant a) in
        List.fold_left
          (fun acc v ->
            let k = Affine.coeff a v in
            let iv = lookup env v in
            let lo_c, hi_c =
              if k > 0 then
                ( Option.map (Affine.scale k) iv.ilo,
                  Option.map (Affine.scale k) iv.ihi )
              else
                ( Option.map (Affine.scale k) iv.ihi,
                  Option.map (Affine.scale k) iv.ilo )
            in
            {
              ilo =
                (match (acc.ilo, lo_c) with
                | Some x, Some y -> Some (Affine.add x y)
                | _ -> None);
              ihi =
                (match (acc.ihi, hi_c) with
                | Some x, Some y -> Some (Affine.add x y)
                | _ -> None);
            })
          { ilo = Some c; ihi = Some c }
          (Affine.vars a)
  in
  let hull i1 i2 =
    let pick prove a b =
      match (a, b) with
      | Some x, Some y ->
          if prove x y then Some x else if prove y x then Some y else None
      | _ -> None
    in
    {
      ilo = pick (Symbolic.prove_le ctx) i1.ilo i2.ilo;
      ihi = pick (Symbolic.prove_ge ctx) i1.ihi i2.ihi;
    }
  in
  let iv_eq a b =
    let oeq x y =
      match (x, y) with
      | Some p, Some q -> Affine.equal p q
      | None, None -> true
      | _ -> false
    in
    oeq a.ilo b.ilo && oeq a.ihi b.ihi
  in
  let set env v iv = (v, iv) :: List.remove_assoc v env in
  let rec assigned_ints stmts =
    List.concat_map
      (function
        | Stmt.Iassign (v, [], _) -> [ v ]
        | Stmt.Iassign _ | Stmt.Assign _ -> []
        | Stmt.If (_, t, e) -> assigned_ints t @ assigned_ints e
        | Stmt.Loop l -> assigned_ints l.body)
      stmts
  in
  let rec go env stmts = List.fold_left step env stmts
  and step env = function
    | Stmt.Iassign (v, [], e) -> set env v (ival env e)
    | Stmt.Iassign _ | Stmt.Assign _ -> env
    | Stmt.If (_, t, e) ->
        let envt = go env t and enve = go env e in
        let keys =
          List.sort_uniq String.compare (assigned_ints t @ assigned_ints e)
        in
        List.fold_left
          (fun acc v -> set acc v (hull (lookup envt v) (lookup enve v)))
          env keys
    | Stmt.Loop l ->
        let keys = List.sort_uniq String.compare (assigned_ints l.body) in
        let idx_iv = { ilo = (ival env l.lo).ilo; ihi = (ival env l.hi).ihi } in
        let saved = List.assoc_opt l.index env in
        let run env0 = go (set env0 l.index idx_iv) l.body in
        let merge env0 env1 =
          List.fold_left
            (fun acc v -> set acc v (hull (lookup env0 v) (lookup env1 v)))
            env0 keys
        in
        (* The loop may run zero or many times: hull one abstract pass
           with the entry state and keep the result only if a second
           pass is stable. *)
        let m1 = merge env (run env) in
        let m2 = merge m1 (run m1) in
        let stable =
          List.for_all (fun v -> iv_eq (lookup m1 v) (lookup m2 v)) keys
        in
        let out =
          if stable then m1
          else List.fold_left (fun acc v -> set acc v unknown_iv) m1 keys
        in
        (match saved with
        | Some iv -> set out l.index iv
        | None -> List.remove_assoc l.index out)
  in
  go [] stmts

let assigned_scalars stmts =
  let rec go = function
    | Stmt.Assign (x, [], _) | Stmt.Iassign (x, [], _) -> [ x ]
    | Stmt.Assign _ | Stmt.Iassign _ -> []
    | Stmt.If (_, t, e) -> List.concat_map go t @ List.concat_map go e
    | Stmt.Loop l -> List.concat_map go l.body
  in
  List.sort_uniq String.compare (List.concat_map go stmts)

let rec fexpr_reads = function
  | Stmt.Fconst _ -> []
  | Stmt.Fvar s -> [ s ]
  | Stmt.Ref (_, subs) -> List.concat_map Expr.free_vars subs
  | Stmt.Fbin (_, a, b) -> fexpr_reads a @ fexpr_reads b
  | Stmt.Fneg a -> fexpr_reads a
  | Stmt.Fcall (_, args) -> List.concat_map fexpr_reads args
  | Stmt.Of_int e -> Expr.free_vars e

let rec cond_reads = function
  | Stmt.Fcmp (_, a, b) -> fexpr_reads a @ fexpr_reads b
  | Stmt.Icmp (_, a, b) -> Expr.free_vars a @ Expr.free_vars b
  | Stmt.Not c -> cond_reads c
  | Stmt.And (a, b) | Stmt.Or (a, b) -> cond_reads a @ cond_reads b

let exposed_reads stmts =
  let expose written names =
    S.of_list (List.filter (fun n -> not (S.mem n written)) names)
  in
  let rec block written stmts =
    List.fold_left
      (fun (exp_, w) s ->
        let e2, w2 = stmt w s in
        (S.union exp_ e2, w2))
      (S.empty, written) stmts
  and stmt written = function
    | Stmt.Assign (x, [], rhs) ->
        (expose written (fexpr_reads rhs), S.add x written)
    | Stmt.Assign (_, subs, rhs) ->
        ( expose written (List.concat_map Expr.free_vars subs @ fexpr_reads rhs),
          written )
    | Stmt.Iassign (x, [], e) -> (expose written (Expr.free_vars e), S.add x written)
    | Stmt.Iassign (_, subs, e) ->
        ( expose written (List.concat_map Expr.free_vars subs @ Expr.free_vars e),
          written )
    | Stmt.If (c, t, e) ->
        let ec = expose written (cond_reads c) in
        let et, wt = block written t in
        let ee, we = block written e in
        (S.union ec (S.union et ee), S.inter wt we)
    | Stmt.Loop l ->
        let eb =
          expose written
            (Expr.free_vars l.lo @ Expr.free_vars l.hi @ Expr.free_vars l.step)
        in
        let ebody, _ = block written l.body in
        (S.union eb (S.remove l.index ebody), written)
  in
  S.elements (fst (block S.empty stmts))

let stmt_covered_scalars stmts =
  let rec fwritten = function
    | Stmt.Assign (x, [], _) -> [ x ]
    | Stmt.Assign _ | Stmt.Iassign _ -> []
    | Stmt.If (_, t, e) -> List.concat_map fwritten t @ List.concat_map fwritten e
    | Stmt.Loop l -> List.concat_map fwritten l.body
  in
  let written = List.sort_uniq String.compare (List.concat_map fwritten stmts) in
  let uncovered = List.concat_map (fun s -> exposed_reads [ s ]) stmts in
  List.filter (fun x -> not (List.mem x uncovered)) written
