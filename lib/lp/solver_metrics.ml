type t = {
  mutable iterations : int;
  mutable pivots : int;
  mutable bound_flips : int;
  mutable refactorizations : int;
}

let create () = { iterations = 0; pivots = 0; bound_flips = 0; refactorizations = 0 }
