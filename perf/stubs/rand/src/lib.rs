//! Empty stand-in for `rand`. `jsym-sysmon` and `jsym-cluster` declare the
//! dependency but no library source calls it, so there is nothing to provide.
