(* The registry kernels' input set-up as it was before it wrote flat
   into the arrays' storage, kept verbatim as an oracle: the element-by-
   element [Env.fill_farray] / [Env.set_f] versions below define the
   inputs, and the flat versions must reproduce them bit for bit. *)

let cholesky env ~bindings ~seed =
  let n = List.assoc "N" bindings in
  Env.add_farray env "A" [ (1, n); (1, n) ];
  (* symmetric positive definite: M^T M + n*I, built in place *)
  let rng = Lcg.create seed in
  let m = Array.init n (fun _ -> Array.init n (fun _ -> Stdlib.( -. ) (Lcg.float rng 1.0) 0.5)) in
  for r = 1 to n do
    for c = 1 to n do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := Stdlib.( +. ) !acc (Stdlib.( *. ) m.(k).(r - 1) m.(k).(c - 1))
      done;
      Env.set_f env "A" [ r; c ]
        (if r = c then Stdlib.( +. ) !acc (float_of_int n) else !acc)
    done
  done

let conv env ~bindings ~seed =
  let n1 = List.assoc "N1" bindings
  and n2 = List.assoc "N2" bindings
  and n3 = List.assoc "N3" bindings in
  Env.add_farray env "F1" [ (0, max n1 n3) ];
  Env.add_farray env "F2" [ (-n2, max n2 n3) ];
  Env.add_farray env "F3" [ (0, n3) ];
  Env.set_fscalar env "DT" 0.01;
  let rng = Lcg.create seed in
  Env.fill_farray env "F1" (fun _ -> Lcg.float rng 1.0);
  Env.fill_farray env "F2" (fun _ -> Lcg.float rng 1.0);
  Env.fill_farray env "F3" (fun _ -> 0.0)

let givens env ~bindings ~seed =
  let m = List.assoc "M" bindings and n = List.assoc "N" bindings in
  Env.add_farray env "A" [ (1, m); (1, n) ];
  let rng = Lcg.create seed in
  Env.fill_farray env "A" (fun _ -> Stdlib.( -. ) (Lcg.float rng 2.0) 1.0)

let householder env ~bindings ~seed =
  let m = List.assoc "M" bindings and n = List.assoc "N" bindings in
  Env.add_farray env "A" [ (1, m); (1, n) ];
  Env.add_farray env "V" [ (1, m) ];
  let rng = Lcg.create seed in
  Env.fill_farray env "A" (fun _ -> Stdlib.( -. ) (Lcg.float rng 2.0) 1.0)

let lu_fill_matrix env ~n ~seed =
  Env.add_farray env "A" [ (1, n); (1, n) ];
  let rng = Lcg.create seed in
  Env.fill_farray env "A" (fun idx ->
      match idx with
      | [ r; c ] ->
          let base = Stdlib.( -. ) (Lcg.float rng 1.0) 0.5 in
          if r = c then Stdlib.( +. ) base (float_of_int n) else base
      | _ -> assert false)

let lu_pivot_fill_matrix env ~n ~seed =
  Env.add_farray env "A" [ (1, n); (1, n) ];
  let rng = Lcg.create seed in
  Env.fill_farray env "A" (fun _ -> Stdlib.( -. ) (Lcg.float rng 2.0) 1.0)

let matmul_fill env ~n ~freq_pct ~seed =
  Env.add_farray env "A" [ (1, n); (1, n) ];
  Env.add_farray env "B" [ (1, n); (1, n) ];
  Env.add_farray env "C" [ (1, n); (1, n) ];
  let rng = Lcg.create seed in
  Env.fill_farray env "A" (fun _ -> Lcg.float rng 1.0);
  Env.fill_farray env "C" (fun _ -> 0.0);
  (* Column-major fill with run structure along K (the first index). *)
  let p = Stdlib.( /. ) (float_of_int freq_pct) 100.0 in
  let run_len = 4 in
  for j = 1 to n do
    let k = ref 1 in
    while !k <= n do
      if Lcg.bool rng (Stdlib.( /. ) p (float_of_int run_len)) then begin
        (* start a run of nonzeros *)
        let stop = min n (!k + run_len - 1) in
        for kk = !k to stop do
          Env.set_f env "B" [ kk; j ] (Stdlib.( +. ) 0.5 (Lcg.float rng 0.5))
        done;
        k := stop + 1
      end
      else begin
        Env.set_f env "B" [ !k; j ] 0.0;
        incr k
      end
    done
  done

let trisolve env ~bindings ~seed =
  let n = List.assoc "N" bindings in
  Env.add_farray env "A" [ (1, n); (1, n) ];
  Env.add_farray env "B" [ (1, n) ];
  Env.add_farray env "X" [ (1, n) ];
  let rng = Lcg.create seed in
  Env.fill_farray env "A" (fun idx ->
      match idx with
      | [ r; c ] ->
          let base = Stdlib.( -. ) (Lcg.float rng 1.0) 0.5 in
          if r = c then Stdlib.( +. ) base (float_of_int n) else base
      | _ -> assert false);
  Env.fill_farray env "B" (fun _ -> Lcg.float rng 1.0)

(* The set-up of a kernel, by the kernel's name. *)
let setup name =
  match name with
  | "cholesky" -> cholesky
  | "conv" | "aconv" -> conv
  | "givens" -> givens
  | "householder" -> householder
  | "lu" ->
      fun env ~bindings ~seed ->
        lu_fill_matrix env ~n:(List.assoc "N" bindings) ~seed
  | "lu_pivot" ->
      fun env ~bindings ~seed ->
        lu_pivot_fill_matrix env ~n:(List.assoc "N" bindings) ~seed
  | "matmul" ->
      fun env ~bindings ~seed ->
        matmul_fill env ~n:(List.assoc "N" bindings)
          ~freq_pct:(List.assoc "FREQ_PCT" bindings) ~seed
  | "trisolve" -> trisolve
  | other -> invalid_arg ("Setup_oracle.setup: no oracle for " ^ other)
