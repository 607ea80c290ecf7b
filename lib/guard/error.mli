(** Structured engine errors — errors as values, not crashes.

    Every failure mode of the query pipeline maps to exactly one
    constructor, so callers can match on the class (and the CLI can map
    each class to a distinct exit code) instead of fishing a raw
    [Invalid_argument] out of a backtrace.  The Result-returning entry
    points ([Database.run_r] and friends) never let any other exception
    escape: {!protect} converts stragglers to {!Internal}. *)

type t =
  | Parse_error of { input : string; message : string }
      (** malformed pattern / XPath / XQuery / XML text *)
  | Invalid_request of string
      (** a well-formed query with out-of-range knobs (e.g. an absurd
          histogram grid or a non-positive [Te]) *)
  | Invalid_plan of string
      (** a plan that does not evaluate the pattern (externally supplied
          or corrupted in transport) *)
  | Budget_exhausted of { resource : Budget.resource; during : string }
      (** a resource ceiling fired and no degradation tier could absorb
          it; [during] is ["optimize"] or ["execute"] *)
  | Corrupt_cache_entry of { key : string; reason : string }
      (** a cached plan failed to deserialize or validate {e and}
          re-optimization failed too (a lone corrupt entry is repaired
          transparently) *)
  | Corrupt_input of { source : string; reason : string }
      (** corrupt data detected at a trust boundary, e.g. an externally
          supplied candidate stream out of document order *)
  | Internal of string
      (** an engine invariant failed — a bug, reported structurally
          rather than as an escaped exception *)
  | Overloaded of { reason : string; retry_after_ms : float }
      (** admission control shed the request — the server's bounded
          queue was full or a tenant quota/rate limit fired.  The
          request was well-formed and may be retried after roughly
          [retry_after_ms]; nothing about it was executed *)

exception Error of t
(** Carrier used by the raising (non-[_r]) compatibility surface. *)

val fail : t -> 'a
(** [raise (Error t)]. *)

val class_name : t -> string
(** Stable lowercase class tag, e.g. ["parse_error"]. *)

val exit_code : t -> int
(** Distinct non-zero process exit code per class: parse 2, request 3,
    plan 4, budget 5, corrupt cache 6, corrupt input 7, internal 8,
    overloaded 9. *)

val exit_code_of_class : string -> int option
(** Inverse lookup from a {!class_name} tag — used by wire clients that
    receive only the class string and must exit like the local CLI
    would. *)

val all_class_names : string list
(** Every class tag, in exit-code order (2..9). *)

val message : t -> string
(** One-line human message (no backtrace, no class prefix). *)

val of_exn : exn -> t option
(** Map the exceptions this library owns ({!Error}, {!Budget.Exhausted})
    and [Invalid_argument] (to {!Invalid_request}) to their value form. *)

val protect : ?map:(exn -> t option) -> (unit -> 'a) -> ('a, t) result
(** Run the thunk, converting raised errors to values: {!of_exn} first,
    then the caller's [map] (for boundary-specific exceptions such as
    parser errors), then a catch-all to {!Internal}.  [Out_of_memory]
    and [Stack_overflow] are re-raised — they are not query errors. *)

val to_json : t -> Sjos_obs.Json.t
val pp : t Fmt.t
