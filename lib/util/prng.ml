(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014.  The golden-gamma
   constant and the two finalizers are taken from the reference
   implementation. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = int64 t in
  { state = seed }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let r = bits t in
    let v = r mod bound in
    if r - v > (max_int lsr 2) - bound + 1 then draw () else v
  in
  draw ()

let uniform t =
  (* 53 random bits into [0, 1). *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int r *. 0x1.0p-53

let float t bound = uniform t *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t ~mean =
  let u = uniform t in
  (* 1 - u is in (0, 1], so log is finite. *)
  -.mean *. log (1.0 -. u)

let gaussian t =
  (* Box–Muller; one value per call keeps the stream deterministic and
     the state minimal. *)
  let u1 = 1.0 -. uniform t and u2 = uniform t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let log_normal t ~mu ~sigma = exp (mu +. (sigma *. gaussian t))

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  (* Inverse-transform over the generalized harmonic CDF, approximated
     with the integral of x^-s; exact enough for workload skew. *)
  if s <= 0.0 then int t n
  else begin
    let nf = float_of_int n in
    let u = uniform t in
    let x =
      if Float.abs (s -. 1.0) < 1e-9 then exp (u *. log nf)
      else
        let p = 1.0 -. s in
        ((u *. ((nf ** p) -. 1.0)) +. 1.0) ** (1.0 /. p)
    in
    let k = int_of_float x in
    if k < 1 then 0 else if k > n then n - 1 else k - 1
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))
