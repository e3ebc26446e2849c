(** Minimal JSON support: the one printer every JSON writer in the
    repository builds on (bench documents, trace and metrics exports,
    the daemon's HTTP replies, [--log-json] lines), and a parser for
    reading those artifacts back.

    Deliberately not a general-purpose JSON library (the repo has no
    JSON dependency by design): no streaming, the whole document is in
    memory, and [\uXXXX] escapes outside the Basic Multilingual Plane
    (surrogate pairs) are rejected. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [parse s] parses exactly one JSON document spanning all of [s]
    (surrounding whitespace allowed).  Errors carry a byte offset. *)

val parse_exn : string -> t
(** @raise Failure with the [parse] error message. *)

val escape : string -> string
(** [escape s] is the JSON string-body encoding of [s] (no
    surrounding quotes): double quotes, backslashes and control
    characters are escaped (newline/tab/CR named, other controls as
    [\u00XX]).  Round-trips through {!parse}. *)

val int : int -> t
(** [int n] is [Num (float_of_int n)]. *)

type layout =
  | Compact  (** No whitespace outside strings: one value, one line. *)
  | Indented
      (** For files: a container whose members are all scalars stays
          on one line, any other container puts one member per line at
          two-space indent, and the text ends with a newline. *)

val to_string : layout -> t -> string
(** [to_string layout v] prints [v].  Strings go through {!escape};
    a number prints as the shortest of [%.15g], [%.16g] and [%.17g]
    that reads back as the same float, so [Num 2.] prints [2] and
    [parse (to_string l v) = Ok v] for every finite [v].  Non-finite
    numbers print [null]. *)

val member : string -> t -> t option
(** [member k (Obj ...)] finds field [k]; [None] on other variants. *)

val str : t -> string option
val num : t -> float option
