(** LU decomposition without pivoting (§5.1), point algorithm in IR.

    {v
    DO K = 1, N-1
      DO I = K+1, N
        A(I,K) = A(I,K) / A(K,K)
      DO J = K+1, N
        DO I = K+1, N
          A(I,J) = A(I,J) - A(I,K)*A(K,J)
    v} *)

val point_loop : Stmt.loop
(** The K loop. *)

val kernel : Kernel_def.t

val fill_diag_dominant : float array -> n:int -> Lcg.t -> unit
(** [fill_diag_dominant a ~n rng] fills the column-major [n] x [n]
    storage [a] with draws from [rng] in [-0.5, 0.5), plus [n] on the
    diagonal. *)

val fill_matrix : Env.t -> n:int -> seed:int -> unit
(** Declare and fill [A] (1..n, 1..n) with a random diagonally dominant
    matrix so elimination without pivoting is well conditioned. *)
