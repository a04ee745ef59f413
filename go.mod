module multiedge

go 1.24
