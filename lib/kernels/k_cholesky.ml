(* Set-up first, ahead of [open Builder], which shadows the float
   operators. *)

(* s + a(i) x0 + a(i+1) x1 + a(i+2) x2 + a(i+3) x3, added left to right *)
let[@inline] madd4 (a : float array) s i x0 x1 x2 x3 =
  let s = s +. (Array.unsafe_get a i *. x0) in
  let s = s +. (Array.unsafe_get a (i + 1) *. x1) in
  let s = s +. (Array.unsafe_get a (i + 2) *. x2) in
  s +. (Array.unsafe_get a (i + 3) *. x3)

(* A symmetric positive definite input: M^T M + n*I, M drawn row by row
   from [-0.5, 0.5).  M is kept transposed, so the two columns of M
   whose dot product is A(r, c) are contiguous.  Only r <= c is
   computed, mirrored into (c, r) (multiplication commutes); four rows
   are jammed per column so their accumulators are independent, and k
   is unrolled by four.  Each element still sums k = 0 .. n-1 in order
   from 0.0, so A is bitwise what the straightforward triple loop
   gives.  The unchecked reads stay inside mt: r + 3 <= c < n and
   k + 3 < n. *)
let spd_fill a ~n rng =
  let mt = Array.create_float (n * n) in
  for k = 0 to n - 1 do
    for j = 0 to n - 1 do
      mt.((j * n) + k) <- Lcg.float rng 1.0 -. 0.5
    done
  done;
  let store r c acc =
    let acc = if r = c then acc +. float_of_int n else acc in
    a.(r + (c * n)) <- acc;
    a.(c + (r * n)) <- acc
  in
  for c = 0 to n - 1 do
    let mc = c * n in
    let r = ref 0 in
    while !r + 3 <= c do
      let m0 = !r * n in
      let m1 = m0 + n in
      let m2 = m1 + n in
      let m3 = m2 + n in
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      let k = ref 0 in
      while !k + 3 < n do
        let k0 = !k in
        let x0 = Array.unsafe_get mt (mc + k0)
        and x1 = Array.unsafe_get mt (mc + k0 + 1)
        and x2 = Array.unsafe_get mt (mc + k0 + 2)
        and x3 = Array.unsafe_get mt (mc + k0 + 3) in
        s0 := madd4 mt !s0 (m0 + k0) x0 x1 x2 x3;
        s1 := madd4 mt !s1 (m1 + k0) x0 x1 x2 x3;
        s2 := madd4 mt !s2 (m2 + k0) x0 x1 x2 x3;
        s3 := madd4 mt !s3 (m3 + k0) x0 x1 x2 x3;
        k := k0 + 4
      done;
      for k = !k to n - 1 do
        let x = mt.(mc + k) in
        s0 := !s0 +. (mt.(m0 + k) *. x);
        s1 := !s1 +. (mt.(m1 + k) *. x);
        s2 := !s2 +. (mt.(m2 + k) *. x);
        s3 := !s3 +. (mt.(m3 + k) *. x)
      done;
      store !r c !s0;
      store (!r + 1) c !s1;
      store (!r + 2) c !s2;
      store (!r + 3) c !s3;
      r := !r + 4
    done;
    for r = !r to c do
      let m0 = r * n in
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (mt.(m0 + k) *. mt.(mc + k))
      done;
      store r c !s
    done
  done

open Builder

let point_loop : Stmt.loop =
  let vn = v "N" and vk = v "K" and vi = v "I" and vj = v "J" in
  let root = set2 "A" vk vk (sqrt_ (a2 "A" vk vk)) in
  let scale =
    do_ "I" (vk +! i 1) vn [ set2 "A" vi vk (a2 "A" vi vk /. a2 "A" vk vk) ]
  in
  let update =
    do_ "J" (vk +! i 1) vn
      [
        do_ "I" vj vn
          [ set2 "A" vi vj (a2 "A" vi vj -. (a2 "A" vi vk *. a2 "A" vj vk)) ];
      ]
  in
  match do_ "K" (i 1) vn [ root; scale; update ] with
  | Stmt.Loop l -> l
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> assert false

let kernel : Kernel_def.t =
  {
    name = "cholesky";
    description = "Cholesky factorization (lower triangle, in place)";
    block = [ Stmt.Loop point_loop ];
    params = [ "N" ];
    setup =
      (fun env ~bindings ~seed ->
        let n = List.assoc "N" bindings in
        Env.add_farray env "A" [ (1, n); (1, n) ];
        spd_fill (Env.farray_data env "A") ~n (Lcg.create seed));
    traced = [ "A" ];
    shapes = [ ("A", [ (i 1, v "N"); (i 1, v "N") ]) ];
  }
