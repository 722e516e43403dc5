(** The one atomic file writer. Every durable document — traces, fault
    plans, stepper and session snapshots, bench JSON — is saved through
    it. *)

(** [write ~path text] writes [text] to a fresh uniquely named temp file
    in [path]'s directory, then renames it over [path]. A reader of
    [path] sees either the previous document or [text], never a torn
    one, and concurrent writers of one [path] never share a temp file
    (the last rename wins). The file is created with mode [0o666]
    before the umask, like [open_out]. On any failure the temp file is
    removed and the exception re-raised. *)
val write : path:string -> string -> unit
