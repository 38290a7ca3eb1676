(* A verdict, with how many fresh names of each kind proving it took. *)
type verdicts = {
  mu : Mutex.t;
  table : (string, (bool * string) * int * int) Hashtbl.t;
}

let verdicts () = { mu = Mutex.create (); table = Hashtbl.create 16 }

type t = {
  prover : Symbolic.memo;
  verdicts : verdicts;
  mutable thetas : int;
  mutable generics : int;
}

let create ?verdicts:(v = verdicts ()) () =
  { prover = Symbolic.create_memo (); verdicts = v; thetas = 0; generics = 0 }

let bind d ctx = Symbolic.with_memo d.prover ctx
let symbolic d = bind d Symbolic.empty

let fresh_theta d base =
  d.thetas <- d.thetas + 1;
  Printf.sprintf "%s.%d" base d.thetas

let fresh_generic d base =
  d.generics <- d.generics + 1;
  Printf.sprintf "%s.g%d" base d.generics

let verdict d key prove =
  let v = d.verdicts in
  match Mutex.protect v.mu (fun () -> Hashtbl.find_opt v.table key) with
  | Some (r, thetas, generics) ->
      d.thetas <- d.thetas + thetas;
      d.generics <- d.generics + generics;
      r
  | None ->
      let thetas = d.thetas and generics = d.generics in
      let r = prove () in
      let used = (r, d.thetas - thetas, d.generics - generics) in
      Mutex.protect v.mu (fun () -> Hashtbl.replace v.table key used);
      r
