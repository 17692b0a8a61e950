// Command afs is the command-line client of the file service:
//
//	afs -servers PORT@ADDR[,...] create "content"      -> prints file capability
//	afs -servers ... read CAP [PATH]                    -> prints page data
//	afs -servers ... write CAP PATH "content"           -> one-update write
//	afs -servers ... append CAP "content"               -> adds a child page
//	afs -servers ... history CAP                        -> committed versions
//	afs -servers ... cat CAP VERSION-INDEX [PATH]       -> time-travel read
//	afs -servers ... ping
//
// Capabilities are the 32-hex-digit text form printed by create; whoever
// holds the string holds the rights.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"repro/internal/capability"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/page"
)

func main() {
	serversFlag := flag.String("servers", "", "comma-separated PORT@ADDR endpoints (from afs-server)")
	flag.Parse()
	args := flag.Args()
	if *serversFlag == "" || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: afs -servers PORT@ADDR[,...] <create|read|write|append|history|cat|ping> ...")
		os.Exit(2)
	}

	mounts, err := core.ParseMounts(*serversFlag, 1)
	if err != nil {
		log.Fatal(err)
	}
	var eps []core.Endpoint
	var ports []capability.Port
	for _, m := range mounts {
		eps = append(eps, m[0])
		ports = append(ports, m[0].Port)
	}
	c := client.New(core.TCPDialer(nil)(eps...), ports...)

	switch args[0] {
	case "ping":
		if err := c.Ping(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("service answers")

	case "create":
		data := ""
		if len(args) > 1 {
			data = args[1]
		}
		fcap, err := c.CreateFile([]byte(data))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(fcap.Text())

	case "read":
		fcap := mustCap(args, 1)
		p := mustPath(args, 2)
		v, err := c.Update(fcap, client.UpdateOpts{})
		if err != nil {
			log.Fatal(err)
		}
		data, children, err := v.Read(p)
		v.Abort()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s", data)
		if children > 0 {
			fmt.Fprintf(os.Stderr, "\n(%d child pages)\n", children)
		} else {
			fmt.Println()
		}

	case "write":
		fcap := mustCap(args, 1)
		p := mustPath(args, 2)
		if len(args) < 4 {
			log.Fatal("write CAP PATH CONTENT")
		}
		v, err := c.Update(fcap, client.UpdateOpts{})
		if err != nil {
			log.Fatal(err)
		}
		if err := v.Write(p, []byte(args[3])); err != nil {
			v.Abort()
			log.Fatal(err)
		}
		if err := v.Commit(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("committed")

	case "append":
		fcap := mustCap(args, 1)
		if len(args) < 3 {
			log.Fatal("append CAP CONTENT")
		}
		v, err := c.Update(fcap, client.UpdateOpts{})
		if err != nil {
			log.Fatal(err)
		}
		_, children, err := v.Read(page.RootPath)
		if err != nil {
			v.Abort()
			log.Fatal(err)
		}
		if err := v.Insert(page.RootPath, children, []byte(args[2])); err != nil {
			v.Abort()
			log.Fatal(err)
		}
		if err := v.Commit(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("committed as page /%d\n", children)

	case "history":
		fcap := mustCap(args, 1)
		hist, err := c.History(fcap)
		if err != nil {
			log.Fatal(err)
		}
		for i, root := range hist {
			marker := " "
			if i == len(hist)-1 {
				marker = "*" // current
			}
			fmt.Printf("%s r%-3d (version page block %d)\n", marker, i, root)
		}

	case "cat":
		fcap := mustCap(args, 1)
		if len(args) < 3 {
			log.Fatal("cat CAP VERSION-INDEX [PATH]")
		}
		idx, err := strconv.Atoi(args[2])
		if err != nil {
			log.Fatal(err)
		}
		hist, err := c.History(fcap)
		if err != nil {
			log.Fatal(err)
		}
		if idx < 0 || idx >= len(hist) {
			log.Fatalf("revision %d of %d", idx, len(hist))
		}
		p := mustPath(args, 3)
		data, _, err := c.ReadCommitted(fcap, hist[idx], p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", data)

	default:
		log.Fatalf("unknown command %q", args[0])
	}
}

// mustCap parses the capability argument at position i.
func mustCap(args []string, i int) capability.Capability {
	if len(args) <= i {
		log.Fatal("missing capability argument")
	}
	c, err := capability.ParseText(args[i])
	if err != nil {
		log.Fatal(err)
	}
	return c
}

// mustPath parses an optional path argument at position i (default root).
func mustPath(args []string, i int) page.Path {
	if len(args) <= i {
		return page.RootPath
	}
	p, err := page.ParsePath(args[i])
	if err != nil {
		log.Fatal(err)
	}
	return p
}
