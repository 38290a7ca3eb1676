(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] record
   field would box a fresh [Int64] on every draw. *)
type t = Bytes.t

(* Knuth's MMIX multiplier; 64-bit state, top 48 bits used. *)
let multiplier = 6364136223846793005L
let increment = 1442695040888963407L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int ((seed * 2654435761) + 1))

let[@inline] next t =
  let s = Int64.add (Int64.mul (Bytes.get_int64_ne t 0) multiplier) increment in
  Bytes.set_int64_ne t 0 s;
  s

let[@inline] bits48 t = Int64.to_int (Int64.shift_right_logical (next t) 16)
let split t = of_state (Int64.logxor (next t) 0x9E3779B97F4A7C15L)

let int t bound =
  assert (bound > 0);
  bits48 t mod bound

let[@inline] uniform t = float_of_int (bits48 t) /. 281474976710656.0
let[@inline] float t x = uniform t *. x
let bool t p = uniform t < p

let fill t a ~lo ~hi =
  let width = hi -. lo in
  for i = 0 to Array.length a - 1 do
    a.(i) <- lo +. float t width
  done
