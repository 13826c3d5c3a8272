module darkdns/bench

go 1.24

require darkdns v0.0.0

replace darkdns => ../
