(* The affine prover's search as it was before memoization, kept
   verbatim (minus its per-context answer cache) as an oracle for
   [Symbolic.prove_nonneg]: the memoized search must give the same
   answer on every fact set and query. *)
let prove_nonneg facts e =
  let rec go depth e =
    match Affine.vars e with
    | [] -> Affine.constant e >= 0
    | v :: _ ->
        depth > 0
        &&
        let ce = Affine.coeff e v in
        List.exists
          (fun f ->
            let cf = Affine.coeff f v in
            if cf = 0 || cf * ce < 0 then false
            else
              let lam =
                if ce mod cf = 0 && ce / cf > 0 then ce / cf
                else if abs cf <= abs ce then 1
                else 0
              in
              lam > 0 && go (depth - 1) (Affine.sub e (Affine.scale lam f)))
          facts
  in
  go 8 e
