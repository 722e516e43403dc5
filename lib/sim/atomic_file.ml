let write ~path text =
  let temp, channel =
    Filename.open_temp_file ~perms:0o666 ~temp_dir:(Filename.dirname path)
      (Filename.basename path ^ ".") ".tmp"
  in
  match
    output_string channel text;
    close_out channel;
    Sys.rename temp path
  with
  | () -> ()
  | exception e ->
      close_out_noerr channel;
      (try Sys.remove temp with Sys_error _ -> ());
      raise e
