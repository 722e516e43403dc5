(** Textual trace format for instances, for the CLI and reproducibility.

    Format (line-oriented, '#' comments allowed):
    {v
    rrs-trace v1
    name <string>
    delta <int>
    bounds <int> <int> ...          # one bound per color, color = position
    arrival <round> <color>:<count> ...
    ...
    end
    v} *)

(** Render an instance to its textual form. *)
val to_string : Instance.t -> string

(** Parse a trace. Rejects duplicate [delta]/[bounds] directives and any
    directive after [end] (signs of a corrupt or concatenated file). *)
val of_string : string -> (Instance.t, string) result

(** Atomic write through {!Atomic_file.write}: interruption cannot leave
    a truncated file at [path]. *)
val save : Instance.t -> path:string -> unit
val load : path:string -> (Instance.t, string) result
