type policy = {
  flow_eps : float;
  pivot_eps : float;
  path_eps : float;
}

let default_policy = { flow_eps = 1e-6; pivot_eps = 1e-9; path_eps = 1e-12 }

let policy ?(flow_eps = default_policy.flow_eps) ?(pivot_eps = default_policy.pivot_eps)
    ?(path_eps = default_policy.path_eps) () =
  if
    Float.is_nan flow_eps || flow_eps < 0.0 || Float.is_nan pivot_eps || pivot_eps < 0.0
    || Float.is_nan path_eps || path_eps < 0.0
  then invalid_arg "Fcmp.policy: tolerances must be non-negative";
  { flow_eps; pivot_eps; path_eps }

let default_eps = default_policy.flow_eps

let scale a b = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let approx_eq ?(eps = default_eps) a b =
  if a = b then true (* covers infinities *)
  else Float.abs (a -. b) <= eps *. scale a b

let approx_le ?(eps = default_eps) a b = a <= b || approx_eq ~eps a b
let approx_ge ?(eps = default_eps) a b = a >= b || approx_eq ~eps a b
let is_zero ?(eps = default_eps) x = approx_eq ~eps x 0.0
